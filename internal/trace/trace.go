// Package trace defines the instruction and synchronization-event
// representation shared by every consumer of a workload: the
// microarchitecture-independent profiler (internal/profiler), the
// cycle-level reference simulator (internal/sim) and the workload
// generators (internal/workload).
//
// A workload is a Program: a set of threads, each an ordered stream of
// Items. An Item is either one dynamic instruction or one synchronization
// event (barrier, lock acquire/release, condition-variable marker, thread
// create/join/exit). Streams are deterministic and restartable, so the
// profiler and the simulator observe bit-identical executions — the
// in-memory equivalent of profiling and simulating the same binary.
//
// The package also implements the record-once/replay-many trace subsystem:
// Record packs a Program into a compact word stream (Recorded) that any
// number of cursors replay concurrently — as Items (NextBatch), or through
// a fully decoded struct-of-arrays view shared by a sweep (Decode) — plus
// a versioned persistence format. The packed encoding and the file layout
// are specified normatively in docs/TRACE_FORMAT.md; change them only per
// that document's evolution checklist.
package trace

import "fmt"

// Class is an instruction class. The class determines the execution latency
// on a functional unit and which port group the instruction competes for.
type Class uint8

// Instruction classes. Load/Store latency is determined by the memory
// hierarchy, not by the class.
const (
	IntALU Class = iota
	IntMul
	IntDiv
	FPAdd
	FPMul
	FPDiv
	Load
	Store
	Branch
	NumClasses = int(Branch) + 1
)

var classNames = [NumClasses]string{
	"IntALU", "IntMul", "IntDiv", "FPAdd", "FPMul", "FPDiv", "Load", "Store", "Branch",
}

func (c Class) String() string {
	if int(c) < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ExecLatency returns the canonical functional-unit execution latency of the
// class in cycles. These latencies are part of the ISA contract: both the
// analytical model and the simulator use them. Loads return the L1 load-to-
// use portion only; the memory hierarchy adds the rest.
func (c Class) ExecLatency() int {
	switch c {
	case IntALU, Store, Branch:
		return 1
	case IntMul:
		return 3
	case IntDiv:
		return 20
	case FPAdd:
		return 3
	case FPMul:
		return 5
	case FPDiv:
		return 18
	case Load:
		return 0 // memory hierarchy supplies the latency
	default:
		return 1
	}
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == Load || c == Store }

// NumRegs is the size of the architectural register file assumed by the
// generators; dependence distances beyond NumRegs-1 cannot be expressed.
const NumRegs = 64

// Instr is one dynamic instruction.
type Instr struct {
	Class Class
	Dst   int8 // destination register, -1 if none
	Src1  int8 // source registers, -1 if unused
	Src2  int8

	// Addr is the byte address accessed by Load/Store instructions.
	Addr uint64

	// PC is the instruction's address, used for I-cache behaviour.
	PC uint64

	// BranchID identifies the static branch site (valid for Class Branch);
	// Taken is the branch outcome in this dynamic instance.
	BranchID uint16
	Taken    bool
}

// SyncKind enumerates the synchronization event types modelled by RPPM
// (Section III of the paper).
type SyncKind uint8

const (
	// SyncNone marks the zero Event; it never appears in a stream.
	SyncNone SyncKind = iota
	// SyncBarrier: the thread arrives at barrier Obj and may only continue
	// once every participating thread has arrived.
	SyncBarrier
	// SyncLockAcquire / SyncLockRelease delimit a critical section on lock
	// Obj (pthread_mutex_lock/unlock).
	SyncLockAcquire
	SyncLockRelease
	// SyncCondWaitMarker is the paper's source-level marker: the thread has
	// reached a point where it may call pthread_cond_wait on condvar Obj
	// (whether it actually waits depends on the microarchitecture).
	SyncCondWaitMarker
	// SyncCondBroadcast releases all threads waiting on condvar Obj;
	// SyncCondSignal releases one. For producer-consumer condvars each
	// broadcast/signal also counts as one produced item.
	SyncCondBroadcast
	SyncCondSignal
	// SyncThreadCreate: the executing thread creates thread Arg.
	SyncThreadCreate
	// SyncThreadJoin: the executing thread waits for thread Arg to exit.
	SyncThreadJoin
	// SyncThreadExit terminates the executing thread's stream.
	SyncThreadExit
	numSyncKinds = int(SyncThreadExit) + 1
)

var syncNames = [numSyncKinds]string{
	"none", "barrier", "lock-acquire", "lock-release",
	"cond-wait-marker", "cond-broadcast", "cond-signal",
	"thread-create", "thread-join", "thread-exit",
}

func (k SyncKind) String() string {
	if int(k) < numSyncKinds {
		return syncNames[k]
	}
	return fmt.Sprintf("SyncKind(%d)", uint8(k))
}

// Event is one synchronization event.
type Event struct {
	Kind SyncKind
	Obj  uint32 // identity of the barrier / lock / condvar (function argument)
	Arg  int    // target thread id for create/join
}

func (e Event) String() string {
	switch e.Kind {
	case SyncThreadCreate, SyncThreadJoin:
		return fmt.Sprintf("%s(t%d)", e.Kind, e.Arg)
	case SyncThreadExit:
		return e.Kind.String()
	default:
		return fmt.Sprintf("%s(#%d)", e.Kind, e.Obj)
	}
}

// Item is one element of a thread's stream: either an instruction or a
// synchronization event.
type Item struct {
	IsSync bool
	Sync   Event
	Instr  Instr
}

// InstrItem wraps an instruction as an Item.
func InstrItem(in Instr) Item { return Item{Instr: in} }

// SyncItem wraps an event as an Item.
func SyncItem(e Event) Item { return Item{IsSync: true, Sync: e} }

// ThreadStream yields the items of one thread in order; a well-formed
// stream ends with a SyncThreadExit event as its last item.
//
// NextBatch fills buf from the front and returns the number of items
// written, in [0, len(buf)]. A return of 0 (for len(buf) > 0) means the
// stream is exhausted; short but non-zero returns are allowed at internal
// boundaries and callers must keep refilling. Filling caller-provided
// buffers is what keeps the profiler and simulator hot paths free of one
// interface call and one Item copy per dynamic instruction. For
// instruction items (IsSync false) the Sync field is unspecified:
// implementations may leave stale bytes from earlier buffer contents
// rather than clear it, so consumers must gate on IsSync, as the profiler
// and simulator do.
//
// Next returns one item, or false once the stream is exhausted. It draws
// from the same stream position as NextBatch, so the two interleave
// consistently.
type ThreadStream interface {
	Next() (Item, bool)
	NextBatch(buf []Item) int
}

// Program is a restartable multithreaded workload. Thread(tid) must return a
// fresh stream positioned at the thread's first item; repeated calls must
// yield identical streams. Thread 0 is the main thread and is the only
// thread runnable at start-up; other threads become runnable when a
// SyncThreadCreate event targeting them executes.
type Program interface {
	Name() string
	NumThreads() int
	Thread(tid int) ThreadStream
}

// SliceStream is a ThreadStream over a fixed []Item slice, used by tests and
// by small hand-built programs.
type SliceStream struct {
	items []Item
	pos   int
}

// NewSliceStream returns a stream over items.
func NewSliceStream(items []Item) *SliceStream { return &SliceStream{items: items} }

// Next implements ThreadStream.
func (s *SliceStream) Next() (Item, bool) {
	if s.pos >= len(s.items) {
		return Item{}, false
	}
	it := s.items[s.pos]
	s.pos++
	return it, true
}

// NextBatch implements ThreadStream.
func (s *SliceStream) NextBatch(buf []Item) int {
	n := copy(buf, s.items[s.pos:])
	s.pos += n
	return n
}

// SliceProgram is a Program over fixed per-thread item slices.
type SliceProgram struct {
	ProgName string
	Threads  [][]Item
}

// Name implements Program.
func (p *SliceProgram) Name() string { return p.ProgName }

// NumThreads implements Program.
func (p *SliceProgram) NumThreads() int { return len(p.Threads) }

// Thread implements Program.
func (p *SliceProgram) Thread(tid int) ThreadStream {
	return NewSliceStream(p.Threads[tid])
}

// CountItems drains a stream and returns the number of instructions and
// sync events it contains. Intended for tests and diagnostics.
func CountItems(s ThreadStream) (instrs, syncs int) {
	for {
		it, ok := s.Next()
		if !ok {
			return
		}
		if it.IsSync {
			syncs++
		} else {
			instrs++
		}
	}
}
