package workload

import (
	"fmt"
	"unsafe"

	"rppm/internal/prng"
	"rppm/internal/trace"
)

// segment is one element of a thread's program: a compute block or a sync
// event.
type segment struct {
	isSync bool
	ev     trace.Event
	block  Block
	n      int    // scaled instruction count for block segments
	seed   uint64 // deterministic per-segment generator seed
}

// Program is a restartable generative multithreaded workload. It implements
// trace.Program.
type Program struct {
	name    string
	threads [][]segment
}

// Name implements trace.Program.
func (p *Program) Name() string { return p.name }

// NumThreads implements trace.Program.
func (p *Program) NumThreads() int { return len(p.threads) }

// SizeBytes returns the resident size of the generative program (its
// segment lists), for memory-budget accounting. Programs are compact
// descriptions — kilobytes, versus megabytes for their recorded traces.
func (p *Program) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*p)) + int64(len(p.name))
	n += int64(len(p.threads)) * int64(unsafe.Sizeof([]segment(nil)))
	for _, t := range p.threads {
		n += int64(len(t)) * int64(unsafe.Sizeof(segment{}))
	}
	return n
}

// Thread implements trace.Program; each call returns a fresh stream.
func (p *Program) Thread(tid int) trace.ThreadStream {
	return &threadStream{tid: tid, segs: p.threads[tid]}
}

// TotalInstructions drains every thread and returns the total dynamic
// instruction count. Intended for reporting; it is O(instructions).
func (p *Program) TotalInstructions() int {
	total := 0
	for t := 0; t < p.NumThreads(); t++ {
		n, _ := trace.CountItems(p.Thread(t))
		total += n
	}
	return total
}

// threadStream replays a thread's segments. The one generator struct is
// re-initialized in place per compute segment (gen points at genv while a
// block is active), so driving a stream costs no allocation per block.
type threadStream struct {
	tid  int
	segs []segment
	idx  int
	gen  *blockGen
	genv blockGen
}

// NextBatch implements trace.ThreadStream: it fills buf with generated
// instructions and sync events, filling compute segments in tight
// per-block runs.
func (s *threadStream) NextBatch(buf []trace.Item) int {
	n := 0
	for n < len(buf) {
		if s.gen != nil {
			n += s.gen.fill(buf[n:])
			if s.gen.done() {
				s.gen = nil
			}
			continue
		}
		if s.idx >= len(s.segs) {
			break
		}
		seg := s.segs[s.idx]
		s.idx++
		if seg.isSync {
			buf[n] = trace.SyncItem(seg.ev)
			n++
			continue
		}
		if seg.n > 0 {
			s.genv.init(seg.block, s.tid, seg.n, seg.seed)
			s.gen = &s.genv
		}
	}
	return n
}

// Next implements trace.ThreadStream.
func (s *threadStream) Next() (trace.Item, bool) {
	var buf [1]trace.Item
	if s.NextBatch(buf[:]) == 0 {
		return trace.Item{}, false
	}
	return buf[0], true
}

// Builder assembles a Program thread by thread.
//
// Thread 0 is the main thread. The builder takes care of deterministic
// per-segment seeding and of scaling block sizes by the global Scale factor,
// which experiments use to trade fidelity for run time.
type Builder struct {
	name    string
	seed    uint64
	scale   float64
	rng     *prng.Source
	threads [][]segment
	nextObj uint32
}

// NewBuilder creates a builder for a program with the given thread count.
func NewBuilder(name string, threads int, seed uint64) *Builder {
	if threads < 1 {
		panic("workload: program needs at least one thread")
	}
	return &Builder{
		name:    name,
		seed:    seed,
		scale:   1.0,
		rng:     prng.New(seed ^ 0xB10C5EED),
		threads: make([][]segment, threads),
	}
}

// SetScale multiplies every subsequent block's instruction count by f.
func (b *Builder) SetScale(f float64) *Builder {
	if f <= 0 {
		panic("workload: scale must be positive")
	}
	b.scale = f
	return b
}

// NumThreads returns the thread count.
func (b *Builder) NumThreads() int { return len(b.threads) }

// NewObj allocates a fresh synchronization object id (lock, barrier or
// condvar identity).
func (b *Builder) NewObj() uint32 {
	b.nextObj++
	return b.nextObj
}

// Compute appends a compute block to thread tid.
func (b *Builder) Compute(tid int, blk Block) *Builder {
	n := int(float64(blk.N)*b.scale + 0.5)
	if blk.N > 0 && n < 1 {
		n = 1
	}
	b.threads[tid] = append(b.threads[tid], segment{
		block: blk,
		n:     n,
		seed:  b.rng.Uint64(),
	})
	return b
}

// Sync appends a synchronization event to thread tid.
func (b *Builder) Sync(tid int, ev trace.Event) *Builder {
	b.threads[tid] = append(b.threads[tid], segment{isSync: true, ev: ev})
	return b
}

// Barrier appends a barrier arrival on obj to every thread in tids.
func (b *Builder) Barrier(obj uint32, tids ...int) *Builder {
	for _, t := range tids {
		b.Sync(t, trace.Event{Kind: trace.SyncBarrier, Obj: obj, Arg: len(tids)})
	}
	return b
}

// CondBarrier appends a condition-variable-implemented barrier (the paper's
// Algorithm 1 pattern, captured through wait markers) to every thread in
// tids.
func (b *Builder) CondBarrier(obj uint32, tids ...int) *Builder {
	for _, t := range tids {
		b.Sync(t, trace.Event{Kind: trace.SyncCondWaitMarker, Obj: obj, Arg: len(tids)})
	}
	return b
}

// Produce appends one item production (condvar broadcast) on obj to tid.
func (b *Builder) Produce(tid int, obj uint32) *Builder {
	return b.Sync(tid, trace.Event{Kind: trace.SyncCondBroadcast, Obj: obj})
}

// Consume appends one item consumption (condvar wait marker with Arg 0) on
// obj to tid.
func (b *Builder) Consume(tid int, obj uint32) *Builder {
	return b.Sync(tid, trace.Event{Kind: trace.SyncCondWaitMarker, Obj: obj, Arg: 0})
}

// Critical wraps body in a lock acquire/release pair on thread tid.
func (b *Builder) Critical(tid int, lock uint32, body Block) *Builder {
	b.Sync(tid, trace.Event{Kind: trace.SyncLockAcquire, Obj: lock})
	b.Compute(tid, body)
	b.Sync(tid, trace.Event{Kind: trace.SyncLockRelease, Obj: lock})
	return b
}

// CreateWorkers appends SyncThreadCreate events for every worker thread
// (1..N-1) to the main thread.
func (b *Builder) CreateWorkers() *Builder {
	for t := 1; t < len(b.threads); t++ {
		b.Sync(0, trace.Event{Kind: trace.SyncThreadCreate, Arg: t})
	}
	return b
}

// Finish appends SyncThreadJoin events for every worker to the main thread
// and terminates every thread with SyncThreadExit, then builds the program.
func (b *Builder) Finish() *Program {
	for t := 1; t < len(b.threads); t++ {
		b.Sync(0, trace.Event{Kind: trace.SyncThreadJoin, Arg: t})
	}
	for t := 0; t < len(b.threads); t++ {
		b.Sync(t, trace.Event{Kind: trace.SyncThreadExit})
	}
	return &Program{name: b.name, threads: b.threads}
}

// Workers returns the worker thread ids (1..N-1), a convenience for
// Barrier(...) participant lists.
func (b *Builder) Workers() []int {
	ids := make([]int, 0, len(b.threads)-1)
	for t := 1; t < len(b.threads); t++ {
		ids = append(ids, t)
	}
	return ids
}

// AllThreads returns every thread id including the main thread.
func (b *Builder) AllThreads() []int {
	ids := make([]int, len(b.threads))
	for t := range ids {
		ids[t] = t
	}
	return ids
}

// Validate performs structural checks on a finished program: every thread
// ends with exactly one exit, lock acquire/release pairs nest correctly, and
// create targets are valid. It is used by tests and by the CLI.
func Validate(p *Program) error {
	created := make(map[int]bool)
	created[0] = true
	for t := 0; t < p.NumThreads(); t++ {
		depth := 0
		exits := 0
		stream := p.Thread(t)
		for {
			it, ok := stream.Next()
			if !ok {
				break
			}
			if !it.IsSync {
				continue
			}
			switch it.Sync.Kind {
			case trace.SyncLockAcquire:
				depth++
			case trace.SyncLockRelease:
				depth--
				if depth < 0 {
					return fmt.Errorf("workload %s: thread %d releases an unheld lock", p.Name(), t)
				}
			case trace.SyncThreadCreate:
				if it.Sync.Arg <= 0 || it.Sync.Arg >= p.NumThreads() {
					return fmt.Errorf("workload %s: thread %d creates invalid thread %d", p.Name(), t, it.Sync.Arg)
				}
				created[it.Sync.Arg] = true
			case trace.SyncThreadExit:
				exits++
			}
		}
		if depth != 0 {
			return fmt.Errorf("workload %s: thread %d ends holding %d locks", p.Name(), t, depth)
		}
		if exits != 1 {
			return fmt.Errorf("workload %s: thread %d has %d exit events, want 1", p.Name(), t, exits)
		}
	}
	for t := 1; t < p.NumThreads(); t++ {
		if !created[t] {
			return fmt.Errorf("workload %s: thread %d is never created", p.Name(), t)
		}
	}
	return nil
}
