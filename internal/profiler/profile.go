// Package profiler collects RPPM's microarchitecture-independent workload
// profile — the in-repository equivalent of the paper's Pin tool.
//
// The profiler performs a functional execution of a trace.Program with a
// canonical round-robin interleaving (one instruction per runnable thread
// per turn) that honors synchronization semantics but involves no timing.
// While executing it records, per thread and per inter-synchronization
// epoch:
//
//   - instruction counts and class mix;
//   - per-site branch statistics (for the linear-entropy branch model);
//   - the per-thread reuse-distance distribution of data accesses, with
//     cold misses and coherence write-invalidations recorded as infinite
//     distances (Åhlman's multithreaded StatStack extension) — used to
//     predict the private L1/L2 miss rates;
//   - the global reuse-distance distribution (reuse measured in accesses by
//     any thread) — used to predict the shared-LLC miss rate, capturing
//     positive and negative interference;
//   - the instruction-stream reuse-distance distribution (for the I-cache);
//   - sampled micro-traces: windows with full register/memory dependence
//     edges, feeding the ILP, MLP and branch-resolution models;
//   - the ordered synchronization event stream delimiting the epochs.
//
// The profile depends only on the program (and its canonical interleaving),
// never on a processor configuration: it is collected once and reused for
// every prediction.
package profiler

import (
	"sync"
	"sync/atomic"

	"rppm/internal/branchmodel"
	"rppm/internal/stats"
	"rppm/internal/statstack"
	"rppm/internal/trace"
)

// Window is one sampled micro-trace: a short instruction window with
// resolved intra-window dependence edges, the profiler-side input to the
// ILP, MLP and branch-resolution models.
type Window struct {
	Classes []trace.Class
	// Dep1/Dep2 are the window-relative indices of the producers of the
	// instruction's source operands, or -1 when the producer lies outside
	// the window (treated as long-ready).
	Dep1, Dep2 []int16
	// GlobalRD holds, for memory instructions, the access's global reuse
	// distance (stats.Infinite for cold/first accesses); -1 for non-memory
	// instructions.
	GlobalRD []int64
	// IsLoad marks load instructions (true) among memory instructions.
	IsLoad []bool
}

// Len returns the window length in instructions.
func (w *Window) Len() int { return len(w.Classes) }

// Epoch is the microarchitecture-independent profile of one thread's
// inter-synchronization epoch.
type Epoch struct {
	Instr  uint64
	Mix    [trace.NumClasses]uint64
	Loads  uint64
	Stores uint64
	// ILineAccesses counts instruction-line touches (recorded when the
	// fetch stream changes line), the denominator for I-cache miss rates.
	ILineAccesses uint64

	Branch *branchmodel.Profile

	PrivateRD *stats.Histogram // per-thread data reuse distances (+coherence)
	GlobalRD  *stats.Histogram // global data reuse distances
	InstrRD   *stats.Histogram // per-thread instruction-line reuse distances

	CoherenceInvalidations uint64

	Windows []Window

	// models memoizes the StatStack models of the reuse-distance
	// histograms. A model depends only on its histogram, never on a
	// configuration, so one build serves every prediction of the epoch.
	// Lazily built, dropped by Merge. Atomic because finished profiles
	// are read by concurrent prediction workers: racing builders store
	// identical contents, so either wins.
	models atomic.Pointer[Models]

	// ilpWalks memoizes the ILP window walk (internal/ilp) per walk key.
	// Allocated by the first store, dropped by Merge.
	ilpWalks atomic.Pointer[ilpWalkTable]
}

// Models are an epoch's StatStack models, built only where the interval
// model reads them: Private and Global when the epoch has loads, Instr
// when it touches instruction lines. The others are nil.
type Models struct {
	Private, Global, Instr *statstack.Model
}

// Models returns the epoch's StatStack models, building them on first
// use; safe for concurrent use. The histograms must not be modified
// afterwards except through Merge.
func (e *Epoch) Models() *Models {
	if m := e.models.Load(); m != nil {
		return m
	}
	m := &Models{}
	if e.Loads > 0 {
		m.Private = statstack.New(e.PrivateRD)
		m.Global = statstack.New(e.GlobalRD)
	}
	if e.ILineAccesses > 0 {
		m.Instr = statstack.New(e.InstrRD)
	}
	e.models.Store(m)
	return m
}

// ILPWalkKey is all the ILP window walk reads of a configuration: the ROB
// length clamped to the epoch's longest window (a ROB at least that long
// walks every window as one chunk, so all such ROBs walk alike) and the L1D
// hit latency that weights loads.
type ILPWalkKey struct{ ROB, LoadLatency int }

// ILPWalk is the ILP window walk's result under one key.
type ILPWalk struct {
	IPC, Cres             float64
	HaveILP, HaveBranches bool
}

// MaxILPWalks bounds an epoch's walk memo. SweepSpace(256) reaches at most
// 15 keys per epoch; past the bound walks are computed and not stored, so
// a stream of distinct configurations cannot grow a resident profile.
const MaxILPWalks = 16

type ilpWalkEntry struct {
	key  ILPWalkKey
	walk ILPWalk
}

// ilpWalkTable is an epoch's walk memo. Readers scan the published prefix
// e[:n] without locking; writers append under mu and publish the entry by
// storing n after writing it.
type ilpWalkTable struct {
	mu sync.Mutex
	n  atomic.Int32
	e  [MaxILPWalks]ilpWalkEntry
}

// ILPWalk returns the memoized walk for k, if stored; safe for concurrent
// use.
func (e *Epoch) ILPWalk(k ILPWalkKey) (ILPWalk, bool) {
	t := e.ilpWalks.Load()
	if t == nil {
		return ILPWalk{}, false
	}
	for i, n := 0, int(t.n.Load()); i < n; i++ {
		if t.e[i].key == k {
			return t.e[i].walk, true
		}
	}
	return ILPWalk{}, false
}

// StoreILPWalk memoizes the walk for k while the memo holds fewer than
// MaxILPWalks entries; safe for concurrent use. Racing builders of one key
// computed the same walk, so the first store serves and later ones are
// dropped.
func (e *Epoch) StoreILPWalk(k ILPWalkKey, w ILPWalk) {
	t := e.ilpWalks.Load()
	if t == nil {
		t = new(ilpWalkTable)
		if !e.ilpWalks.CompareAndSwap(nil, t) {
			t = e.ilpWalks.Load()
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(t.n.Load())
	if n == MaxILPWalks {
		return
	}
	for i := 0; i < n; i++ {
		if t.e[i].key == k {
			return
		}
	}
	t.e[n] = ilpWalkEntry{k, w}
	t.n.Store(int32(n + 1))
}

// NewEpoch returns an empty epoch profile.
func NewEpoch() *Epoch {
	return &Epoch{
		Branch:    branchmodel.NewProfile(),
		PrivateRD: stats.NewHistogram(),
		GlobalRD:  stats.NewHistogram(),
		InstrRD:   stats.NewHistogram(),
	}
}

// DataAccesses returns the number of data memory accesses in the epoch.
func (e *Epoch) DataAccesses() uint64 { return e.Loads + e.Stores }

// Merge folds other into e (used to build whole-thread aggregate profiles,
// which rppm-diag inspects; predictions evaluate epochs one by one).
func (e *Epoch) Merge(other *Epoch) {
	if other == nil {
		return
	}
	e.Instr += other.Instr
	for i := range e.Mix {
		e.Mix[i] += other.Mix[i]
	}
	e.Loads += other.Loads
	e.Stores += other.Stores
	e.ILineAccesses += other.ILineAccesses
	e.Branch.Merge(other.Branch)
	e.PrivateRD.Merge(other.PrivateRD)
	e.GlobalRD.Merge(other.GlobalRD)
	e.InstrRD.Merge(other.InstrRD)
	e.CoherenceInvalidations += other.CoherenceInvalidations
	e.Windows = append(e.Windows, other.Windows...)
	e.models.Store(nil)
	e.ilpWalks.Store(nil)
}

// ThreadProfile is one thread's sequence of epochs delimited by its
// synchronization events: Epochs[i] is the work executed before Events[i].
// A well-formed profile has len(Epochs) == len(Events) and ends with a
// thread-exit event.
type ThreadProfile struct {
	Epochs []*Epoch
	Events []trace.Event
}

// TotalInstr returns the thread's dynamic instruction count.
func (t *ThreadProfile) TotalInstr() uint64 {
	var n uint64
	for _, e := range t.Epochs {
		n += e.Instr
	}
	return n
}

// Aggregate merges all the thread's epochs into a single epoch profile.
func (t *ThreadProfile) Aggregate() *Epoch {
	agg := NewEpoch()
	for _, e := range t.Epochs {
		agg.Merge(e)
	}
	return agg
}

// Profile is a complete workload profile.
type Profile struct {
	Name       string
	NumThreads int
	Threads    []*ThreadProfile
}

// TotalInstr returns the whole program's dynamic instruction count.
func (p *Profile) TotalInstr() uint64 {
	var n uint64
	for _, t := range p.Threads {
		n += t.TotalInstr()
	}
	return n
}

// SyncCounts summarizes the dynamic synchronization events across all
// threads, in the categories of the paper's Table III: critical sections
// (lock acquisitions), barrier arrivals, and condition-variable events
// (wait markers, broadcasts and signals).
func (p *Profile) SyncCounts() (criticalSections, barriers, condVars int) {
	for _, t := range p.Threads {
		for _, e := range t.Events {
			switch e.Kind {
			case trace.SyncLockAcquire:
				criticalSections++
			case trace.SyncBarrier:
				barriers++
			case trace.SyncCondWaitMarker, trace.SyncCondBroadcast, trace.SyncCondSignal:
				condVars++
			}
		}
	}
	return
}
