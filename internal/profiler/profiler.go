package profiler

import (
	"fmt"
	"sync"

	"rppm/internal/branchmodel"
	"rppm/internal/hashmap"
	"rppm/internal/stats"
	"rppm/internal/trace"
)

// Options control micro-trace sampling. The zero value selects defaults.
type Options struct {
	// WindowSize is the micro-trace length in instructions (default 512;
	// the paper samples windows of a thousand instructions).
	WindowSize int
	// WindowInterval is the sampling period: within each epoch, the first
	// WindowSize instructions of every WindowInterval are recorded
	// (default 4096).
	WindowInterval int
	// NoCoherence disables write-invalidation detection (ablation): reuse
	// distances of lines written by other threads are recorded as ordinary
	// distances instead of infinite ones.
	NoCoherence bool
}

func (o Options) withDefaults() Options {
	if o.WindowSize <= 0 {
		o.WindowSize = 512
	}
	if o.WindowInterval < o.WindowSize {
		o.WindowInterval = 4096
		if o.WindowInterval < o.WindowSize {
			o.WindowInterval = o.WindowSize
		}
	}
	return o
}

const lineShift = 6 // 64-byte lines, matching every arch config

// batchSize is the number of items fetched from a thread's stream per
// refill. The canonical round-robin interleaving consumes one item per
// thread per turn, so batches only amortize stream-side cost (interface
// dispatch, generator dispatch) — they never reorder execution.
const batchSize = 256

// noILine is an impossible I-line value (PCs are byte addresses shifted
// right by lineShift), marking "no line fetched yet".
const noILine = ^uint64(0)

// bufPool recycles the per-thread item batch buffers across profiler runs;
// a session profiles dozens of workloads, and the buffers (batchSize Items
// each) are pure scratch.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]trace.Item, batchSize)
		return &b
	},
}

// epochArena slab-allocates the retained profile objects. A profiling run
// creates one epoch per synchronization event per thread — each an Epoch,
// a branch profile and three histograms, whose exact-count arrays are
// 32 KB apiece — and allocating them object by object dominated the
// profiler's allocation count (BenchmarkProfilerInstr reported ~1800
// allocations per run before slabbing). The arena is single-goroutine
// (profiling is a serial functional execution); the finished profile keeps
// the slabs alive, exactly as individually-allocated objects would.
type epochArena struct {
	epochs   []Epoch
	branches []branchmodel.Profile
	hists    []stats.Histogram
	linear   []uint64
	windows  []Window
	// alloc is the one closure handed to every histogram (allocating a
	// closure per histogram would itself cost an allocation per epoch).
	alloc func(n int) []uint64
	// sites slab-allocates the per-epoch branch-site tables, the last
	// individually-allocated object class a profiling run created per
	// epoch. siteHint tracks the largest site count an epoch has recorded
	// so far: epochs execute the same static code, so pre-sizing new
	// tables at the high-water mark makes in-place growth (which abandons
	// slab space) rare after the first epoch.
	sites    branchmodel.SiteArena
	siteHint int
}

const (
	epochChunk = 32
	// winsPerEpoch is the slab capacity handed to an epoch's Windows slice
	// on its first flush; epochs sampling more windows fall back to
	// ordinary append growth.
	winsPerEpoch = 8
)

// windowSlice carves an empty Windows slice with winsPerEpoch capacity.
func (a *epochArena) windowSlice() []Window {
	if len(a.windows) < winsPerEpoch {
		a.windows = make([]Window, 8*winsPerEpoch)
	}
	s := a.windows[:0:winsPerEpoch]
	a.windows = a.windows[winsPerEpoch:]
	return s
}

func newEpochArena() *epochArena {
	a := &epochArena{}
	a.alloc = a.allocUint64
	return a
}

// allocUint64 carves a zeroed n-slice from the arena's uint64 slab.
func (a *epochArena) allocUint64(n int) []uint64 {
	if len(a.linear) < n {
		a.linear = make([]uint64, 8*n)
	}
	b := a.linear[:n:n]
	a.linear = a.linear[n:]
	return b
}

// newEpoch is the arena equivalent of NewEpoch.
func (a *epochArena) newEpoch() *Epoch {
	if len(a.epochs) == 0 {
		a.epochs = make([]Epoch, epochChunk)
		a.branches = make([]branchmodel.Profile, epochChunk)
		a.hists = make([]stats.Histogram, 3*epochChunk)
	}
	e := &a.epochs[0]
	a.epochs = a.epochs[1:]
	e.Branch = &a.branches[0]
	a.branches = a.branches[1:]
	e.Branch.PresizeIn(&a.sites, a.siteHint)
	e.PrivateRD, e.GlobalRD, e.InstrRD = &a.hists[0], &a.hists[1], &a.hists[2]
	a.hists = a.hists[3:]
	e.PrivateRD.SetLinearAllocator(a.alloc)
	e.GlobalRD.SetLinearAllocator(a.alloc)
	e.InstrRD.SetLinearAllocator(a.alloc)
	return e
}

// winArena slab-allocates the sampled micro-trace window arrays for one
// thread. Windows close at their configured length except the last one of
// each epoch, so the arena reclaims the unused tail when a short window
// closes — which is also why the arena is per-thread: the open window is
// always its arena's most recent allocation.
type winArena struct {
	classes []trace.Class
	dep1    []int16
	dep2    []int16
	grd     []int64
	loads   []bool
	pos     int
	cap     int
	chunk   int // windows per slab chunk; doubles as windows accumulate
}

const (
	winChunkMin = 4  // first slab: threads sampling few windows stay small
	winChunkMax = 64 // later slabs: amortize threads sampling thousands
)

// open points w's arrays at fresh zero-length slices with capacity ws.
func (a *winArena) open(w *Window, ws int) {
	if a.cap-a.pos < ws {
		if a.chunk = a.chunk * 2; a.chunk < winChunkMin {
			a.chunk = winChunkMin
		} else if a.chunk > winChunkMax {
			a.chunk = winChunkMax
		}
		n := a.chunk * ws
		a.classes = make([]trace.Class, n)
		a.dep1 = make([]int16, n)
		a.dep2 = make([]int16, n)
		a.grd = make([]int64, n)
		a.loads = make([]bool, n)
		a.pos, a.cap = 0, n
	}
	p := a.pos
	w.Classes = a.classes[p : p : p+ws]
	w.Dep1 = a.dep1[p : p : p+ws]
	w.Dep2 = a.dep2[p : p : p+ws]
	w.GlobalRD = a.grd[p : p : p+ws]
	w.IsLoad = a.loads[p : p : p+ws]
	a.pos = p + ws
}

// close clamps w's arrays to their recorded length (so retained windows
// cannot grow into a neighbor's slab region) and returns the unused tail
// of a short window to the arena.
func (a *winArena) close(w *Window, ws int) {
	n := w.Len()
	w.Classes = w.Classes[:n:n]
	w.Dep1 = w.Dep1[:n:n]
	w.Dep2 = w.Dep2[:n:n]
	w.GlobalRD = w.GlobalRD[:n:n]
	w.IsLoad = w.IsLoad[:n:n]
	a.pos -= ws - n
}

// threadState is the per-thread functional execution state.
type threadState struct {
	stream  trace.ThreadStream
	created bool
	blocked bool
	done    bool

	// Pre-fetched items from the thread's deterministic stream. Items do
	// not depend on other threads' progress, so buffering ahead of the
	// round-robin schedule is invisible to the profile.
	buf    []trace.Item
	bufPos int
	bufLen int

	profile *ThreadProfile
	epoch   *Epoch

	// arena supplies epoch objects; wins supplies this thread's window
	// arrays; winBuf is the one open window (flushed by value into the
	// epoch, so the struct is reusable).
	arena   *epochArena
	wins    winArena
	winBuf  Window
	winSize int

	// Window recording state. winPhase is the position within the current
	// sampling interval: a window records while winPhase < WindowSize.
	win       *Window
	winPhase  int
	producers [trace.NumRegs]int16

	lastILine  uint64                 // last fetched I-line; noILine before any fetch
	ilineCount uint64                 // per-thread I-line access counter
	ilast      hashmap.Map[uint64]    // I-line -> last access index
	dlast      hashmap.Map[[2]uint64] // data line -> [thread access idx, global access idx]
	dcount     uint64                 // per-thread data access counter
}

type lockState struct {
	held   bool
	holder int
	queue  []int
}

type barrierState struct {
	arrived int
	waiters []int
}

// exec is the functional execution engine.
type exec struct {
	prog trace.Program
	opt  Options

	threads []*threadState

	locks        map[uint32]*lockState
	barriers     map[uint32]*barrierState
	condBarriers map[uint32]*barrierState
	condItems    map[uint32]int
	condQueue    map[uint32][]int
	joinWaiters  map[int][]int

	globalMem uint64
	// global tracks, per data line, the global index of the last access by
	// any thread and the last write (writer tid + global index), folded
	// into one record so the hot path pays one table probe per access
	// instead of separate last-access and last-write probes.
	global hashmap.Map[globalRec]

	// ilArena and dlArena slab-allocate the per-thread reuse tracking
	// tables (one of each per thread), so thread setup costs two chunk
	// allocations per exec instead of two tables per thread.
	ilArena hashmap.Arena[uint64]
	dlArena hashmap.Arena[[2]uint64]
}

// globalRec is the per-line global tracking record. writerP is the writing
// thread's id plus one, so the zero record means "never accessed, never
// written".
type globalRec struct {
	last    uint64 // global index of the last access
	wGlobal uint64 // global index of the last write
	writerP uint32 // last writer tid + 1; 0 = never written
}

// Run profiles a program and returns its microarchitecture-independent
// profile. It returns an error if the program deadlocks under the canonical
// round-robin interleaving.
func Run(p trace.Program, opt Options) (*Profile, error) {
	opt = opt.withDefaults()
	ex := &exec{
		prog:         p,
		opt:          opt,
		locks:        make(map[uint32]*lockState),
		barriers:     make(map[uint32]*barrierState),
		condBarriers: make(map[uint32]*barrierState),
		condItems:    make(map[uint32]int),
		condQueue:    make(map[uint32][]int),
		joinWaiters:  make(map[int][]int),
		global:       *hashmap.New[globalRec](8192),
	}
	arena := newEpochArena()
	for t := 0; t < p.NumThreads(); t++ {
		buf := bufPool.Get().(*[]trace.Item)
		defer bufPool.Put(buf)
		ts := &threadState{
			stream:    p.Thread(t),
			lastILine: noILine,
			created:   t == 0,
			buf:       *buf,
			// Epochs/Events grow once per synchronization event; starting
			// at a real capacity skips the small append doublings.
			profile: &ThreadProfile{
				Epochs: make([]*Epoch, 0, 64),
				Events: make([]trace.Event, 0, 64),
			},
			arena:   arena,
			winSize: opt.WindowSize,
		}
		// Pre-size the tracking tables near typical footprints (a few
		// hundred code lines, a few thousand data lines per thread) to
		// skip the early rehash-and-copy doublings; the arenas batch all
		// threads' tables into shared slabs.
		ts.ilast.InitIn(&ex.ilArena, 512)
		ts.dlast.InitIn(&ex.dlArena, 4096)
		ts.epoch = arena.newEpoch()
		for i := range ts.producers {
			ts.producers[i] = -1
		}
		ex.threads = append(ex.threads, ts)
	}

	for {
		progress := false
		alldone := true
		for tid := range ex.threads {
			ts := ex.threads[tid]
			if ts.done {
				continue
			}
			alldone = false
			if !ts.created || ts.blocked {
				continue
			}
			if ts.bufPos == ts.bufLen {
				ts.bufLen = ts.stream.NextBatch(ts.buf)
				ts.bufPos = 0
				if ts.bufLen == 0 {
					// Streams should end with an explicit exit; treat a
					// bare end as an exit for robustness.
					ex.handleSync(tid, trace.Event{Kind: trace.SyncThreadExit})
					progress = true
					continue
				}
			}
			item := &ts.buf[ts.bufPos]
			ts.bufPos++
			progress = true
			if item.IsSync {
				ex.handleSync(tid, item.Sync)
			} else {
				ex.instr(tid, &item.Instr)
			}
		}
		if alldone {
			break
		}
		if !progress {
			return nil, fmt.Errorf("profiler: deadlock in %q: %s", p.Name(), ex.describeBlocked())
		}
	}

	prof := &Profile{Name: p.Name(), NumThreads: p.NumThreads()}
	for _, ts := range ex.threads {
		prof.Threads = append(prof.Threads, ts.profile)
	}
	return prof, nil
}

func (ex *exec) describeBlocked() string {
	s := ""
	for tid, ts := range ex.threads {
		if !ts.done && (ts.blocked || !ts.created) {
			s += fmt.Sprintf(" t%d(created=%v)", tid, ts.created)
		}
	}
	return s
}

// closeEpoch finalizes the thread's current epoch at event e.
func (ts *threadState) closeEpoch(e trace.Event) {
	ts.flushWindow()
	ts.profile.Epochs = append(ts.profile.Epochs, ts.epoch)
	ts.profile.Events = append(ts.profile.Events, e)
	if n := ts.epoch.Branch.NumSites(); n > ts.arena.siteHint {
		ts.arena.siteHint = n
	}
	ts.epoch = ts.arena.newEpoch()
	ts.winPhase = 0
}

func (ts *threadState) flushWindow() {
	if ts.win != nil {
		ts.wins.close(ts.win, ts.winSize)
		if ts.win.Len() > 0 {
			if ts.epoch.Windows == nil {
				ts.epoch.Windows = ts.arena.windowSlice()
			}
			ts.epoch.Windows = append(ts.epoch.Windows, *ts.win)
		}
	}
	ts.win = nil
}

func (ex *exec) handleSync(tid int, e trace.Event) {
	ts := ex.threads[tid]
	ts.closeEpoch(e)
	switch e.Kind {
	case trace.SyncBarrier:
		ex.barrierArrive(ex.barriers, tid, e)
	case trace.SyncCondWaitMarker:
		if e.Arg > 0 {
			// Condition variable used as a barrier (paper's Algorithm 1).
			ex.barrierArrive(ex.condBarriers, tid, e)
			return
		}
		// Producer-consumer wait: consume an item or block.
		if ex.condItems[e.Obj] > 0 {
			ex.condItems[e.Obj]--
			return
		}
		ts.blocked = true
		ex.condQueue[e.Obj] = append(ex.condQueue[e.Obj], tid)
	case trace.SyncCondBroadcast, trace.SyncCondSignal:
		ex.condItems[e.Obj]++
		if q := ex.condQueue[e.Obj]; len(q) > 0 {
			waiter := q[0]
			ex.condQueue[e.Obj] = q[1:]
			ex.condItems[e.Obj]--
			ex.threads[waiter].blocked = false
		}
	case trace.SyncLockAcquire:
		l := ex.locks[e.Obj]
		if l == nil {
			l = &lockState{}
			ex.locks[e.Obj] = l
		}
		if l.held {
			ts.blocked = true
			l.queue = append(l.queue, tid)
			return
		}
		l.held = true
		l.holder = tid
	case trace.SyncLockRelease:
		l := ex.locks[e.Obj]
		if l == nil || !l.held || l.holder != tid {
			// Structural bug in the workload; Validate should have caught
			// it. Keep going rather than corrupt state.
			return
		}
		if len(l.queue) > 0 {
			l.holder = l.queue[0]
			l.queue = l.queue[1:]
			ex.threads[l.holder].blocked = false
		} else {
			l.held = false
		}
	case trace.SyncThreadCreate:
		if e.Arg > 0 && e.Arg < len(ex.threads) {
			ex.threads[e.Arg].created = true
		}
	case trace.SyncThreadJoin:
		if e.Arg >= 0 && e.Arg < len(ex.threads) && !ex.threads[e.Arg].done {
			ts.blocked = true
			ex.joinWaiters[e.Arg] = append(ex.joinWaiters[e.Arg], tid)
		}
	case trace.SyncThreadExit:
		ts.done = true
		for _, w := range ex.joinWaiters[tid] {
			ex.threads[w].blocked = false
		}
		delete(ex.joinWaiters, tid)
	}
}

func (ex *exec) barrierArrive(m map[uint32]*barrierState, tid int, e trace.Event) {
	bs := m[e.Obj]
	if bs == nil {
		bs = &barrierState{}
		m[e.Obj] = bs
	}
	bs.arrived++
	if bs.arrived >= e.Arg {
		for _, w := range bs.waiters {
			ex.threads[w].blocked = false
		}
		bs.arrived = 0
		bs.waiters = bs.waiters[:0]
		return
	}
	ex.threads[tid].blocked = true
	bs.waiters = append(bs.waiters, tid)
}

// dep resolves a source register to the window-relative index of its
// producer, or -1 when the producer lies outside the window. A method
// rather than a per-instruction closure: the closure allocated on every
// sampled instruction and defeated inlining in the hot loop.
func (ts *threadState) dep(src int8) int16 {
	if src < 0 {
		return -1
	}
	return ts.producers[src]
}

// instr records one dynamic instruction.
func (ex *exec) instr(tid int, in *trace.Instr) {
	ts := ex.threads[tid]
	ep := ts.epoch
	ep.Instr++
	ep.Mix[in.Class]++

	// Instruction stream: record a reuse sample when the fetch crosses into
	// a different line.
	iline := in.PC >> lineShift
	if iline != ts.lastILine {
		if last, ok := ts.ilast.Upsert(iline, ts.ilineCount); ok {
			ep.InstrRD.Add(int64(ts.ilineCount - last - 1))
		} else {
			ep.InstrRD.Add(stats.Infinite)
		}
		ts.ilineCount++
		ep.ILineAccesses++
		ts.lastILine = iline
	}

	if in.Class == trace.Branch {
		ep.Branch.Record(in.BranchID, in.Taken)
	}

	// Data memory: global and private reuse distances, coherence detection.
	var globalRD int64 = -1
	if in.Class.IsMem() {
		line := in.Addr >> lineShift
		var privateRD int64
		g, touched := ex.global.RefPresent(line)
		if touched {
			globalRD = int64(ex.globalMem - g.last - 1)
		} else {
			globalRD = stats.Infinite
		}
		ep.GlobalRD.Add(globalRD)

		if rec, ok := ts.dlast.Upsert(line, [2]uint64{ts.dcount, ex.globalMem}); ok {
			if g.writerP != 0 && int(g.writerP-1) != tid && g.wGlobal > rec[1] && !ex.opt.NoCoherence {
				// Another thread wrote the line since our last access:
				// write-invalidation, the private copy is gone.
				privateRD = stats.Infinite
				ep.CoherenceInvalidations++
			} else {
				privateRD = int64(ts.dcount - rec[0] - 1)
			}
		} else {
			privateRD = stats.Infinite
		}
		ep.PrivateRD.Add(privateRD)

		g.last = ex.globalMem
		if in.Class == trace.Store {
			g.wGlobal = ex.globalMem
			g.writerP = uint32(tid) + 1
			ep.Stores++
		} else {
			ep.Loads++
		}
		ex.globalMem++
		ts.dcount++
	}

	// Micro-trace sampling. winPhase is the position within the sampling
	// interval; the first WindowSize instructions of each interval are
	// recorded.
	phase := ts.winPhase
	switch {
	case phase == 0:
		ts.flushWindow()
		// Exact-capacity arrays carved from the thread's window slab:
		// windows are retained in the profile, so they cannot be pooled,
		// but slab allocation replaces five heap objects per window with
		// five per eight windows (short windows return their tails).
		ts.win = &ts.winBuf
		ts.wins.open(ts.win, ex.opt.WindowSize)
		for i := range ts.producers {
			ts.producers[i] = -1
		}
		fallthrough
	case phase < ex.opt.WindowSize:
		w := ts.win
		if w != nil {
			w.Classes = append(w.Classes, in.Class)
			w.Dep1 = append(w.Dep1, ts.dep(in.Src1))
			w.Dep2 = append(w.Dep2, ts.dep(in.Src2))
			if in.Class.IsMem() {
				w.GlobalRD = append(w.GlobalRD, globalRD)
			} else {
				w.GlobalRD = append(w.GlobalRD, -1)
			}
			w.IsLoad = append(w.IsLoad, in.Class == trace.Load)
			if in.Dst >= 0 {
				ts.producers[in.Dst] = int16(phase)
			}
		}
	case phase == ex.opt.WindowSize:
		ts.flushWindow()
	}
	ts.winPhase++
	if ts.winPhase == ex.opt.WindowInterval {
		ts.winPhase = 0
	}
}
