// Package sim is the cycle-level multicore reference simulator — the
// repository's stand-in for the Sniper simulator the paper validates
// against. It executes the same trace.Program streams as the profiler, but
// with full microarchitectural detail:
//
//   - an instruction-window-centric out-of-order core model (the same class
//     of core model as Sniper's most accurate one): per-instruction
//     dispatch, issue, complete and commit times constrained by dispatch
//     width, ROB size, register dependences, functional-unit ports and
//     MSHRs;
//   - a real tournament branch predictor (internal/bpred) with resolution
//     plus front-end refill penalties on mispredictions;
//   - a real cache hierarchy (internal/cache): private L1I/L1D/L2,
//     shared LLC, MESI-style write-invalidation coherence, with memory
//     accesses interleaved in global time order across cores;
//   - operational synchronization semantics with timing: barriers, locks
//     (FIFO), condition variables (barrier-style and producer-consumer),
//     thread create/join.
//
// Threads are advanced by a global scheduler that always runs the thread
// with the smallest local clock, so cross-thread interactions (coherence,
// LLC sharing, lock hand-offs) happen in a causally consistent global
// order. The simulator reports per-thread measured CPI stacks using direct
// penalty attribution, enabling the component-wise comparison of Figure 5.
//
// For design-space sweeps the package additionally offers config-batched
// stepping: RunBatch advances k fully independent engine states over one
// shared trace in bounded interleaved slices, so the trace columns a
// sweep's configurations all read stay hot in the host cache instead of
// being streamed k times (see docs/ARCHITECTURE.md, "Batched sweep
// stepping", for the layout and the exactness argument). Batched results
// are bit-identical to k separate Run calls.
package sim

import (
	"fmt"
	"unsafe"

	"rppm/internal/arch"
	"rppm/internal/bpred"
	"rppm/internal/cache"
	"rppm/internal/interval"
	"rppm/internal/trace"
)

// ThreadResult is the simulated outcome for one thread.
type ThreadResult struct {
	Instr        uint64
	FinishCycle  float64
	ActiveCycles float64
	IdleCycles   float64 // waiting on synchronization (the sync component)
	Stack        interval.Stack
	// ActiveIntervals are the [start, end) cycle intervals during which the
	// thread was executing (between synchronization events); used to build
	// bottlegraphs.
	ActiveIntervals [][2]float64
}

// Result is a complete simulation outcome.
type Result struct {
	Cycles  float64 // program execution time in cycles
	Seconds float64
	Threads []ThreadResult

	// FilterHits is always zero. It is kept only because the repository
	// benchmark (perfbench/validate.go) reads it.
	FilterHits uint64
	// DirProbes counts data accesses that probed the coherence directory.
	// Diagnostics only: no golden hash covers it.
	DirProbes uint64
}

// SizeBytes returns the resident size of the result, for memory-budget
// accounting in the engine's cache.
func (r *Result) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*r))
	for i := range r.Threads {
		n += int64(unsafe.Sizeof(r.Threads[i]))
		n += 16 * int64(len(r.Threads[i].ActiveIntervals))
	}
	return n
}

// TotalInstr returns the total simulated instruction count.
func (r *Result) TotalInstr() uint64 {
	var n uint64
	for i := range r.Threads {
		n += r.Threads[i].Instr
	}
	return n
}

// port groups for issue contention.
const (
	portIntALU = iota
	portIntMul
	portFP
	portLoad
	portStore
	portBranch
	numPorts
)

// portTable maps an instruction class to its issue-port group; covering
// the whole uint8 class space means the per-instruction lookup needs
// neither bounds check nor branch, and invalid classes keep the
// documented fallback (issue on the branch unit) exactly as the old
// switch did.
var portTable = func() (t [256]uint8) {
	for i := range t {
		t[i] = portBranch
	}
	t[trace.IntALU] = portIntALU
	t[trace.IntMul] = portIntMul
	t[trace.IntDiv] = portIntMul
	t[trace.FPAdd] = portFP
	t[trace.FPMul] = portFP
	t[trace.FPDiv] = portFP
	t[trace.Load] = portLoad
	t[trace.Store] = portStore
	t[trace.Branch] = portBranch
	return
}()

func portOf(c trace.Class) int { return int(portTable[c]) }

// execLat caches Class.ExecLatency pre-converted to float64, indexed like
// portTable: the default execute path then costs one load instead of a
// latency switch plus an int-to-float conversion per instruction.
// Class.ExecLatency returns its default for every out-of-range class, so
// the full-range table is exact.
var execLat = func() (t [256]float64) {
	for i := range t {
		t[i] = float64(trace.Class(i).ExecLatency())
	}
	return
}()

// noILine is an impossible I-line value (PCs are byte addresses shifted
// right by six), marking "no line fetched yet".
const noILine = ^uint64(0)

// batchSize is the number of items fetched from a thread's stream per
// refill. Streams are per-thread deterministic, so buffering ahead of the
// global scheduler cannot change what any thread executes — only stream
// dispatch cost is amortized.
const batchSize = 256

type simThread struct {
	id     int
	core   int
	stream trace.ThreadStream

	// Pre-fetched items from the thread's stream (Item path).
	buf    []trace.Item
	bufPos int
	bufLen int

	// Column state (shared-decode path): when the stream is a
	// *trace.DecodedCursor, instructions are read from its zero-copy
	// column windows and buf stays nil. Both paths consume the identical
	// item sequence; only the in-memory staging differs.
	dec    *trace.DecodedCursor
	cols   trace.Columns
	colPos int
	colLen int

	created bool
	blocked bool
	done    bool

	// Timing state. clock == prevCommit is the thread's local time.
	// floor is the last pipeline-reset time: rob and regReady entries are
	// interpreted as max(entry, floor), which lets resumeAt run in O(1)
	// instead of clearing ROBSize+NumRegs slots on every synchronization
	// event. (Entries written before a reset never exceed the reset time:
	// commit times are monotone and bound every complete time, so the
	// lazy max reads exactly what an eager reset would store.)
	clock        float64
	prevCommit   float64
	prevDispatch float64
	frontendFree float64
	floor        float64
	rob          []float64 // ring of the last ROBSize commit times
	robPos       int
	regReady     [trace.NumRegs]float64
	portFree     [numPorts]float64
	outstanding  []float64 // completion times of in-flight misses; cap MSHRs

	bp            *bpred.Tournament
	lastILine     uint64 // last fetched I-line; noILine before any fetch
	frontendCause uint8  // what last stalled the front end (for attribution)

	// acc accumulates the commit-gap attribution per component (indexed by
	// attrBase..attrMemDRAM); folded into stack at the end of the run. An
	// indexed array lets step charge a table-selected component with one
	// indexed add instead of a comparison chain, and keeps each component's
	// float addition order identical to the per-field form.
	acc [numAttr]float64

	// Accounting.
	instr      uint64
	epochStart float64
	intervals  [][2]float64
	idle       float64
	stack      interval.Stack
	finish     float64

	blockedAt float64 // clock when the thread blocked (to compute idle)
}

type simLock struct {
	held   bool
	holder int
	queue  []int
}

type simBarrier struct {
	arrived int
	waiters []int
	maxTime float64
}

type producerState struct {
	items     int
	itemTimes []float64 // production times of queued items
	queue     []int     // blocked consumers
}

// stepConsts are the per-configuration constants of the core model's
// per-instruction hot path, hoisted out of arch.Config once per Run so
// step reads a handful of pre-converted scalars instead of chasing the
// config struct and re-converting integers every instruction.
type stepConsts struct {
	invWidth      float64           // 1 / DispatchWidth (dispatch and commit bandwidth)
	invPort       [numPorts]float64 // 1 / ports in the group (issue bandwidth)
	frontendDepth float64           // mispredict refill depth, pre-converted
	l1dLat        float64           // L1D hit latency, for the MRU-load fast path
	mshrs         int               // MSHR bound for the miss-admission check
}

type engine struct {
	cfg     arch.Config
	prog    trace.Program
	hier    *cache.Hierarchy
	threads []*simThread

	stepConsts

	locks        map[uint32]*simLock
	barriers     map[uint32]*simBarrier
	condBarriers map[uint32]*simBarrier
	producers    map[uint32]*producerState
	joinWaiters  map[int][]int

	// Resumable-scheduler state: when advance returns with its instruction
	// budget exhausted mid-quantum, cur is the running thread and limit its
	// quantum bound, so the next advance call resumes the exact same
	// quantum instead of recomputing a fresh limit (which would change the
	// interleaving and break bit-identity with an uninterrupted run).
	cur   *simThread
	limit float64
}

// Run simulates the program on the configuration and returns the result.
// It returns an error for invalid configurations or deadlocked programs.
func Run(p trace.Program, cfg arch.Config) (*Result, error) {
	e, err := newEngine(p, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := e.advance(^uint64(0)); err != nil {
		return nil, err
	}
	return e.result(), nil
}

// batchWindow is the per-turn instruction budget of RunBatch's round-robin:
// each engine advances at most this many instructions before the next one
// gets the trace. At ~28 bytes of decoded column data per instruction a
// window touches ~900 KiB — outer-cache-resident on the host — so all k
// engines re-read a warm region instead of streaming the whole trace k
// times. The window is deliberately coarse: every turn switch faults the
// next engine's private simulator state (tag arrays, directory map) back
// into the host caches, so a window must be long enough to amortize that
// reload against the trace-locality win. 32 Ki instructions measured
// fastest across the suite; 8 Ki was ~25% slower on the memory-heavy
// workloads while the compute-heavy ones were flat.
const batchWindow = 32768

// RunBatch simulates the program under each configuration with
// config-batched stepping: k engine states advance over the shared program
// in bounded round-robin slices of batchWindow instructions, so every
// configuration walks the same region of the trace at roughly the same
// time and its columns stay hot in the host cache (the intended program
// type is trace.Decoded, whose cursors are zero-copy views over one shared
// decode). Each engine is exactly the Run engine — turn boundaries only
// pause and resume it between instructions — so every returned Result is
// bit-identical to a serial Run call with the same inputs; see
// docs/ARCHITECTURE.md, "Batched sweep stepping". An invalid configuration
// or a deadlocked program fails the whole batch.
func RunBatch(p trace.Program, cfgs []arch.Config) ([]*Result, error) {
	engines := make([]*engine, len(cfgs))
	for i := range cfgs {
		e, err := newEngine(p, cfgs[i])
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	results := make([]*Result, len(cfgs))
	for remaining := len(engines); remaining > 0; {
		for i, e := range engines {
			if e == nil {
				continue
			}
			done, err := e.advance(batchWindow)
			if err != nil {
				return nil, err
			}
			if done {
				results[i] = e.result()
				engines[i] = nil
				remaining--
			}
		}
	}
	return results, nil
}

// newEngine validates the configuration and builds a ready-to-advance
// engine over the program.
func newEngine(p trace.Program, cfg arch.Config) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Recorded and Decoded programs both carry their captured distinct
	// data-line bound; it pre-sizes the coherence directory, replacing the
	// rehash-growth doublings every replay would otherwise repeat.
	dataLines := 0
	if b, ok := p.(interface{ DataLineBound() int }); ok {
		dataLines = b.DataLineBound()
	}
	e := &engine{
		cfg:          cfg,
		prog:         p,
		hier:         cache.NewHierarchyHinted(cfg, dataLines),
		locks:        make(map[uint32]*simLock),
		barriers:     make(map[uint32]*simBarrier),
		condBarriers: make(map[uint32]*simBarrier),
		producers:    make(map[uint32]*producerState),
		joinWaiters:  make(map[int][]int),
	}
	e.invWidth = 1 / float64(cfg.DispatchWidth)
	for pg := 0; pg < numPorts; pg++ {
		e.invPort[pg] = 1 / portCount(&e.cfg, pg)
	}
	e.frontendDepth = float64(cfg.FrontendDepth)
	e.l1dLat = float64(cfg.L1D.HitLatency)
	e.mshrs = cfg.MSHRs
	for t := 0; t < p.NumThreads(); t++ {
		st := &simThread{
			id:          t,
			lastILine:   noILine,
			core:        t % cfg.Cores,
			stream:      p.Thread(t),
			created:     t == 0,
			rob:         make([]float64, cfg.ROBSize),
			outstanding: make([]float64, 0, cfg.MSHRs),
			bp:          bpred.New(cfg.BPredBytes),
		}
		if dc, ok := st.stream.(*trace.DecodedCursor); ok {
			// Shared-decode replay path (design-space sweeps): the cursor
			// hands out zero-copy column windows over a trace decoded once
			// for all configurations, so per-instruction stream cost is a
			// couple of slice reads. Every other stream (a single-config
			// ReplayCursor replay, a generator) stays on the Item path —
			// decoding packed words into one Item array beats fanning them
			// across eight column arrays when nothing shares the decode.
			st.dec = dc
		} else {
			st.buf = make([]trace.Item, batchSize)
		}
		e.threads = append(e.threads, st)
	}
	return e, nil
}

// quantum is the scheduling quantum: a thread may run ahead of the globally
// slowest runnable thread by at most this many cycles before yielding,
// bounding causal skew of shared-memory interleaving.
const quantum = 200.0

// advance runs the global scheduler for at most budget instructions and
// reports whether the program finished. A false return with nil error
// means the budget ran out mid-quantum; the interrupted quantum's state is
// saved on the engine, so a later advance resumes exactly where this one
// stopped and the concatenation of budget slices steps the identical
// instruction sequence an uninterrupted run would. Synchronization events
// are handled at quantum boundaries and cost no budget.
func (e *engine) advance(budget uint64) (bool, error) {
	cur, limit := e.cur, e.limit
	for {
		if cur == nil {
			// Pick the runnable thread with the smallest clock.
			allDone := true
			for _, st := range e.threads {
				if st.done {
					continue
				}
				allDone = false
				if !st.created || st.blocked {
					continue
				}
				if cur == nil || st.clock < cur.clock {
					cur = st
				}
			}
			if allDone {
				e.cur = nil
				return true, nil
			}
			if cur == nil {
				return false, fmt.Errorf("sim: deadlock in %q", e.prog.Name())
			}
			limit = cur.clock + quantum
		}
		if cur.dec != nil {
			// Column replay path: instructions arrive in struct-of-arrays
			// windows; sync events end a window and are collected
			// explicitly. The consumed item sequence is identical to the
			// Item path below — only the staging differs.
			cols := &cur.cols
			for cur.clock <= limit && !cur.done && !cur.blocked {
				if budget == 0 {
					e.cur, e.limit = cur, limit
					return false, nil
				}
				if cur.colPos == cur.colLen {
					cur.colLen = cur.dec.NextColumns(cols)
					cur.colPos = 0
					if cur.colLen == 0 {
						ev, ok := cur.dec.TakeSync()
						if !ok {
							ev = trace.Event{Kind: trace.SyncThreadExit}
						}
						e.handleSync(cur, ev)
						break // sync events end the quantum: state may have changed
					}
				}
				i := cur.colPos
				cur.colPos++
				e.step(cur, cols.Class[i], cols.Dst[i], cols.Src1[i], cols.Src2[i],
					cols.PC[i], cols.Addr[i], cols.Taken[i])
				budget--
			}
			cur = nil
			continue
		}
		for cur.clock <= limit && !cur.done && !cur.blocked {
			if budget == 0 {
				e.cur, e.limit = cur, limit
				return false, nil
			}
			if cur.bufPos == cur.bufLen {
				cur.bufLen = cur.stream.NextBatch(cur.buf)
				cur.bufPos = 0
				if cur.bufLen == 0 {
					e.handleSync(cur, trace.Event{Kind: trace.SyncThreadExit})
					break
				}
			}
			item := &cur.buf[cur.bufPos]
			cur.bufPos++
			if item.IsSync {
				e.handleSync(cur, item.Sync)
				break // sync events end the quantum: state may have changed
			}
			in := &item.Instr
			e.step(cur, in.Class, in.Dst, in.Src1, in.Src2, in.PC, in.Addr, in.Taken)
			budget--
		}
		cur = nil
	}
}

// result assembles the Result from a finished engine.
func (e *engine) result() *Result {
	res := &Result{}
	for _, st := range e.threads {
		if st.finish > res.Cycles {
			res.Cycles = st.finish
		}
		st.stack.Base = st.acc[attrBase]
		st.stack.Branch = st.acc[attrBranch]
		st.stack.ICache = st.acc[attrICache]
		st.stack.MemL2 = st.acc[attrMemL2]
		st.stack.MemLLC = st.acc[attrMemLLC]
		st.stack.MemDRAM = st.acc[attrMemDRAM]
		st.stack.Sync = st.idle
		active := st.activeTotal()
		st.stack.Instr = st.instr
		res.Threads = append(res.Threads, ThreadResult{
			Instr:           st.instr,
			FinishCycle:     st.finish,
			ActiveCycles:    active,
			IdleCycles:      st.idle,
			Stack:           st.stack,
			ActiveIntervals: st.intervals,
		})
	}
	res.Seconds = e.cfg.CyclesToSeconds(res.Cycles)
	res.DirProbes = e.hier.DirProbes()
	return res
}

func (st *simThread) activeTotal() float64 {
	total := 0.0
	for _, iv := range st.intervals {
		total += iv[1] - iv[0]
	}
	return total
}

// resumeAt restarts a thread's pipeline at time t (after a synchronization
// event): the ROB is drained, all registers are ready, the front-end is
// clean. The ROB ring and register file are reset lazily through floor —
// every entry they hold is a commit or complete time bounded by the
// thread's clock, which t can only exceed — so this is O(1) per sync
// event. portFree entries can exceed complete times by a fractional cycle,
// so the few of them are reset eagerly.
func (st *simThread) resumeAt(t float64) {
	st.clock = t
	st.prevCommit = t
	st.prevDispatch = t
	st.frontendFree = t
	st.floor = t
	for i := range st.portFree {
		st.portFree[i] = t
	}
	st.outstanding = st.outstanding[:0]
	st.epochStart = t
}

// closeEpoch ends the current active interval at the thread's clock.
func (st *simThread) closeEpoch() {
	if st.clock > st.epochStart {
		st.intervals = append(st.intervals, [2]float64{st.epochStart, st.clock})
	}
	st.epochStart = st.clock
}

// block marks the thread blocked at its current clock.
func (e *engine) block(st *simThread) {
	st.blocked = true
	st.blockedAt = st.clock
}

// wake resumes a blocked thread at time t (>= its blocking time), adding
// overhead cycles for the synchronization primitive itself.
func (e *engine) wake(st *simThread, t float64) {
	if t < st.blockedAt {
		t = st.blockedAt
	}
	st.idle += t - st.blockedAt
	st.blocked = false
	st.resumeAt(t + float64(e.cfg.SyncOverhead))
}

func (e *engine) handleSync(st *simThread, ev trace.Event) {
	st.closeEpoch()
	ov := float64(e.cfg.SyncOverhead)
	switch ev.Kind {
	case trace.SyncBarrier:
		e.barrierArrive(e.barriers, st, ev)
	case trace.SyncCondWaitMarker:
		if ev.Arg > 0 {
			e.barrierArrive(e.condBarriers, st, ev)
			return
		}
		ps := e.producerState(ev.Obj)
		if ps.items > 0 {
			ps.items--
			t := ps.itemTimes[0]
			ps.itemTimes = ps.itemTimes[1:]
			// The item may have been produced after we arrived (can only
			// happen transiently under quantum skew); wait for it.
			start := st.clock
			if t > start {
				st.idle += t - start
				start = t
			}
			st.resumeAt(start + ov)
			return
		}
		e.block(st)
		ps.queue = append(ps.queue, st.id)
	case trace.SyncCondBroadcast, trace.SyncCondSignal:
		ps := e.producerState(ev.Obj)
		if len(ps.queue) > 0 {
			waiter := e.threads[ps.queue[0]]
			ps.queue = ps.queue[1:]
			e.wake(waiter, st.clock)
		} else {
			ps.items++
			ps.itemTimes = append(ps.itemTimes, st.clock)
		}
		st.resumeAt(st.clock + ov)
	case trace.SyncLockAcquire:
		l := e.locks[ev.Obj]
		if l == nil {
			l = &simLock{}
			e.locks[ev.Obj] = l
		}
		if l.held {
			e.block(st)
			l.queue = append(l.queue, st.id)
			return
		}
		l.held = true
		l.holder = st.id
		st.resumeAt(st.clock + ov)
	case trace.SyncLockRelease:
		l := e.locks[ev.Obj]
		if l == nil || !l.held || l.holder != st.id {
			st.resumeAt(st.clock + ov)
			return
		}
		if len(l.queue) > 0 {
			next := e.threads[l.queue[0]]
			l.queue = l.queue[1:]
			l.holder = next.id
			e.wake(next, st.clock)
		} else {
			l.held = false
		}
		st.resumeAt(st.clock + ov)
	case trace.SyncThreadCreate:
		if ev.Arg > 0 && ev.Arg < len(e.threads) {
			child := e.threads[ev.Arg]
			child.created = true
			child.resumeAt(st.clock + ov)
		}
		st.resumeAt(st.clock + ov)
	case trace.SyncThreadJoin:
		if ev.Arg >= 0 && ev.Arg < len(e.threads) {
			target := e.threads[ev.Arg]
			if !target.done {
				e.block(st)
				e.joinWaiters[ev.Arg] = append(e.joinWaiters[ev.Arg], st.id)
				return
			}
			if target.finish > st.clock {
				st.idle += target.finish - st.clock
				st.resumeAt(target.finish + ov)
				return
			}
		}
		st.resumeAt(st.clock + ov)
	case trace.SyncThreadExit:
		st.done = true
		st.finish = st.clock
		for _, w := range e.joinWaiters[st.id] {
			e.wake(e.threads[w], st.clock)
		}
		delete(e.joinWaiters, st.id)
	}
}

func (e *engine) producerState(obj uint32) *producerState {
	ps := e.producers[obj]
	if ps == nil {
		ps = &producerState{}
		e.producers[obj] = ps
	}
	return ps
}

func (e *engine) barrierArrive(m map[uint32]*simBarrier, st *simThread, ev trace.Event) {
	bs := m[ev.Obj]
	if bs == nil {
		bs = &simBarrier{}
		m[ev.Obj] = bs
	}
	bs.arrived++
	if st.clock > bs.maxTime {
		bs.maxTime = st.clock
	}
	if bs.arrived >= ev.Arg {
		release := bs.maxTime
		for _, w := range bs.waiters {
			e.wake(e.threads[w], release)
		}
		// The releasing (last) thread also pays the barrier overhead.
		st.resumeAt(release + float64(e.cfg.SyncOverhead))
		bs.arrived = 0
		bs.waiters = bs.waiters[:0]
		bs.maxTime = 0
		return
	}
	e.block(st)
	bs.waiters = append(bs.waiters, st.id)
}

// Front-end stall causes, for commit-gap attribution.
const (
	feNone uint8 = iota
	feBranch
	feICache
	numFeCauses
)

// Commit-gap attribution components, indexing simThread.acc. attrBase must
// be zero: the memory-level table below uses it as "no binding memory
// penalty, fall through to the branch/front-end causes".
const (
	attrBase = iota
	attrBranch
	attrICache
	attrMemL2
	attrMemLLC
	attrMemDRAM
	numAttr
)

// memAttr maps a served memory level (+1, so the "no memory access" -1
// indexes slot 0) to the attribution component bound to it. L1 hits carry
// no attributable memory penalty and fall through like non-memory
// instructions. This table plus feAttr replace the attribution comparison
// chain with two indexed loads.
var memAttr = [cache.NumLevels + 1]uint8{
	0:                          attrBase, // no memory access
	int(cache.LevelL1) + 1:     attrBase,
	int(cache.LevelL2) + 1:     attrMemL2,
	int(cache.LevelLLC) + 1:    attrMemLLC,
	int(cache.LevelRemote) + 1: attrMemDRAM,
	int(cache.LevelMem) + 1:    attrMemDRAM,
}

// feAttr maps the front-end stall cause to its attribution component.
var feAttr = [numFeCauses]uint8{feNone: attrBase, feBranch: attrBranch, feICache: attrICache}

// step advances the thread's timing state by one instruction (the
// instruction-window-centric core model). Fields are passed individually
// so both staging layouts (Item batches and replay columns) feed the same
// model without an intermediate struct.
func (e *engine) step(st *simThread, cls trace.Class, dst, src1, src2 int8, pc, addr uint64, taken bool) {
	invWidth := e.invWidth
	hier := e.hier

	// Front end: I-cache and mispredict refill determine fetch readiness.
	// The MRU fast path covers the dominant fetch (an L1I hit adds no
	// latency, so a true return needs no further work) without the
	// AccessInstr call.
	fetchReady := st.frontendFree
	iline := pc >> 6
	if iline != st.lastILine {
		if !hier.InstrMRU(st.core, pc) {
			lat, _ := hier.AccessInstr(st.core, pc)
			if lat > 0 {
				fetchReady += float64(lat)
				st.frontendFree = fetchReady
				st.frontendCause = feICache
			}
		}
		st.lastILine = iline
	}

	// Dispatch: bandwidth, ROB occupancy, front-end readiness.
	dispatch := fetchReady
	if d := st.prevDispatch + invWidth; d > dispatch {
		dispatch = d
	}
	// ROB full: wait for the oldest entry to commit. Entries predating the
	// last pipeline reset read as the reset time (floor).
	if r := st.rob[st.robPos]; r > dispatch && r > st.floor {
		dispatch = r
	}
	st.prevDispatch = dispatch
	frontendBound := dispatch == fetchReady && fetchReady > st.epochStart

	// Issue: operand readiness and port contention. Register-ready times
	// below floor read as floor, which dispatch already bounds.
	ready := dispatch
	if src1 >= 0 && st.regReady[src1] > ready && st.regReady[src1] > st.floor {
		ready = st.regReady[src1]
	}
	if src2 >= 0 && st.regReady[src2] > ready && st.regReady[src2] > st.floor {
		ready = st.regReady[src2]
	}
	pg := portOf(cls)
	issue := ready
	if st.portFree[pg] > issue {
		issue = st.portFree[pg]
	}
	st.portFree[pg] = issue + e.invPort[pg]

	// Execute.
	var complete float64
	var memLevel cache.Level = -1
	switch cls {
	case trace.Load:
		// MRU fast path: the commonest load of all hits the MRU way of
		// this core's L1D set, skipping the AccessData call entirely.
		// memLevel stays -1, which attributes like an L1 hit (both index
		// attrBase in memAttr), and an L1 hit takes neither the MSHR nor
		// the outstanding-miss path — so the fast path is bit-identical.
		if hier.LoadMRU(st.core, addr) {
			complete = issue + e.l1dLat
			break
		}
		lat, lvl := hier.AccessData(st.core, addr, false)
		memLevel = lvl
		if lvl != cache.LevelL1 {
			// MSHR limit: if all miss registers are busy, wait.
			issue = st.mshrAdmit(issue, e.mshrs)
		}
		complete = issue + float64(lat)
		if lvl != cache.LevelL1 {
			st.outstanding = append(st.outstanding, complete)
		}
	case trace.Store:
		// Stores update coherence state but retire through the store
		// buffer: one cycle of core latency.
		hier.AccessData(st.core, addr, true)
		complete = issue + 1
	default:
		complete = issue + execLat[cls]
	}
	if dst >= 0 {
		st.regReady[dst] = complete
	}

	// Branch prediction.
	mispredicted := false
	if cls == trace.Branch {
		if correct := st.bp.Update(pc, taken); !correct {
			mispredicted = true
			refill := complete + e.frontendDepth
			if refill > st.frontendFree {
				st.frontendFree = refill
				st.frontendCause = feBranch
			}
		}
	}

	// In-order commit with width bandwidth.
	commit := complete
	if c := st.prevCommit + invWidth; c > commit {
		commit = c
	}

	// Commit-gap attribution: every cycle of commit progress is charged to
	// exactly one component, so per-thread stacks sum to active time. The
	// smooth-flow share (1/width) and dependence/port stalls are base; the
	// excess beyond smooth flow goes to the binding penalty, selected by
	// table lookup (memory level first, then mispredict, then the recorded
	// front-end cause) exactly as the old comparison chain did.
	gap := commit - st.prevCommit
	excess := gap - invWidth
	if excess > 0 {
		a := memAttr[memLevel+1]
		if a == attrBase {
			if mispredicted {
				// The mispredicted branch's own resolution latency.
				a = attrBranch
			} else if frontendBound {
				a = feAttr[st.frontendCause]
			}
		}
		st.acc[a] += excess
		st.acc[attrBase] += gap - excess
	} else {
		st.acc[attrBase] += gap
	}

	st.prevCommit = commit
	st.clock = commit
	st.rob[st.robPos] = commit
	st.robPos++
	if st.robPos == len(st.rob) {
		st.robPos = 0
	}
	st.instr++
}

// mshrAdmit delays issue until an MSHR is available and prunes completed
// misses. The buffer is a fixed-capacity scratch treated as a multiset
// (only minima and cardinality are ever observed): pruning compacts in
// place and the blocking miss is removed by swapping in the last element,
// so the steady state allocates and shifts nothing.
func (st *simThread) mshrAdmit(issue float64, mshrs int) float64 {
	live := st.outstanding[:0]
	for _, c := range st.outstanding {
		if c > issue {
			live = append(live, c)
		}
	}
	st.outstanding = live
	for len(st.outstanding) >= mshrs {
		// Wait for the earliest completion.
		minI := 0
		for i, c := range st.outstanding {
			if c < st.outstanding[minI] {
				minI = i
			}
		}
		if st.outstanding[minI] > issue {
			issue = st.outstanding[minI]
		}
		last := len(st.outstanding) - 1
		st.outstanding[minI] = st.outstanding[last]
		st.outstanding = st.outstanding[:last]
	}
	return issue
}

func portCount(cfg *arch.Config, pg int) float64 {
	switch pg {
	case portIntALU:
		return float64(cfg.IntALUPorts)
	case portIntMul:
		return float64(cfg.IntMulPorts)
	case portFP:
		return float64(cfg.FPPorts)
	case portLoad:
		return float64(cfg.LoadPorts)
	case portStore:
		return float64(cfg.StorePorts)
	default:
		return float64(cfg.BranchUnits)
	}
}
