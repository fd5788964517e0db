// Package core implements RPPM itself — the paper's contribution: a
// mechanistic analytical model predicting multithreaded application
// execution time on a multicore processor from a single
// microarchitecture-independent profile.
//
// Prediction runs in two phases (Section III.B, Figure 3):
//
// Phase 1 — per-epoch active execution times. For every thread and every
// inter-synchronization epoch, Equation 1 (internal/interval) predicts the
// active cycles from the epoch's profile. Private-cache miss rates come
// from the per-thread reuse-distance distributions; the shared-LLC miss
// rate comes from the global (interleaved) distributions, so shared-
// resource interference and coherence are folded into per-thread times.
//
// Phase 2 — synchronization overhead via symbolic execution (Algorithm 2).
// Threads are advanced shortest-clock-first through their synchronization
// event streams; barriers release at the latest arrival, critical sections
// serialize with FIFO hand-off, condition variables behave as barriers or
// producer-consumer item queues according to their classified usage, joins
// wait for thread exit. Idle time accumulates wherever a thread waits, and
// the slowest thread through each epoch determines progress — exactly the
// error-accumulation structure that makes multithreaded prediction hard
// (Table I).
//
// The package also provides the paper's two naive baselines: MAIN (model
// the main thread only) and CRIT (model every thread independently, take
// the slowest), used as comparison points in Figure 4.
package core

import (
	"fmt"
	"unsafe"

	"rppm/internal/arch"
	"rppm/internal/interval"
	"rppm/internal/profiler"
	"rppm/internal/trace"
)

// ThreadPrediction is RPPM's outcome for one thread.
type ThreadPrediction struct {
	Instr        uint64
	FinishCycle  float64
	ActiveCycles float64
	IdleCycles   float64
	// Stack is the thread's predicted CPI stack with Sync set to the
	// predicted idle time.
	Stack interval.Stack
	// EpochActive are the phase-1 per-epoch active-time predictions.
	EpochActive []float64
	// ActiveIntervals are the predicted [start, end) active intervals from
	// the symbolic execution, used for bottlegraphs.
	ActiveIntervals [][2]float64
}

// Prediction is a complete RPPM prediction.
type Prediction struct {
	Cycles  float64
	Seconds float64
	Threads []ThreadPrediction
}

// SizeBytes returns the resident size of the prediction, for memory-budget
// accounting in the engine's cache.
func (p *Prediction) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*p))
	for i := range p.Threads {
		n += int64(unsafe.Sizeof(p.Threads[i]))
		n += 8 * int64(len(p.Threads[i].EpochActive))
		n += 16 * int64(len(p.Threads[i].ActiveIntervals))
	}
	return n
}

// TotalInstr returns the profiled instruction count covered by the
// prediction.
func (p *Prediction) TotalInstr() uint64 {
	var n uint64
	for i := range p.Threads {
		n += p.Threads[i].Instr
	}
	return n
}

// CondvarClass is the classified usage pattern of a condition variable
// (Section III.B: "we use these markers to verify the intended behavior of
// the condition variable").
type CondvarClass int

const (
	// CondvarBarrier: all participating threads wait and any thread
	// releases — modelled as a barrier.
	CondvarBarrier CondvarClass = iota
	// CondvarProducerConsumer: a set of threads produces items
	// (broadcast/signal markers), a disjoint set consumes (wait markers) —
	// modelled with an item counter that stalls empty consumers.
	CondvarProducerConsumer
)

// ClassifyCondvars inspects a profile's event streams and classifies every
// condition-variable object by its observed usage.
func ClassifyCondvars(p *profiler.Profile) map[uint32]CondvarClass {
	waiters := make(map[uint32]map[int]bool)
	producers := make(map[uint32]map[int]bool)
	for tid, tp := range p.Threads {
		for _, ev := range tp.Events {
			switch ev.Kind {
			case trace.SyncCondWaitMarker:
				if waiters[ev.Obj] == nil {
					waiters[ev.Obj] = make(map[int]bool)
				}
				waiters[ev.Obj][tid] = true
			case trace.SyncCondBroadcast, trace.SyncCondSignal:
				if producers[ev.Obj] == nil {
					producers[ev.Obj] = make(map[int]bool)
				}
				producers[ev.Obj][tid] = true
			}
		}
	}
	out := make(map[uint32]CondvarClass)
	for obj, w := range waiters {
		prod := producers[obj]
		disjoint := true
		for t := range prod {
			if w[t] {
				disjoint = false
				break
			}
		}
		if len(prod) > 0 && disjoint {
			out[obj] = CondvarProducerConsumer
		} else if len(prod) == 0 {
			out[obj] = CondvarBarrier
		} else {
			// Overlapping waiter/producer sets: the conservative choice is
			// the item-queue semantics, which degrades to barrier-like
			// behaviour when producers immediately precede waiters.
			out[obj] = CondvarProducerConsumer
		}
	}
	for obj := range producers {
		if _, seen := out[obj]; !seen {
			out[obj] = CondvarProducerConsumer
		}
	}
	return out
}

// symThread is the Algorithm 2 per-thread state.
type symThread struct {
	id      int
	clock   float64
	next    int // index of the next event/epoch to process
	created bool
	blocked bool
	done    bool

	blockedAt float64
	idle      float64
	intervals [][2]float64
	finish    float64
}

type symLock struct {
	held   bool
	holder int
	queue  []int
}

type symBarrier struct {
	arrived int
	waiters []int
	maxTime float64
}

type symProducer struct {
	items     int
	itemTimes []float64
	queue     []int
}

// Predict runs RPPM: phase-1 per-epoch interval-model predictions followed
// by the phase-2 symbolic execution of synchronization.
func Predict(prof *profiler.Profile, cfg arch.Config) (*Prediction, error) {
	return PredictOpts(prof, cfg, interval.ModelOptions{})
}

// PredictOpts is Predict with explicit interval-model options (ablations).
func PredictOpts(prof *profiler.Profile, cfg arch.Config, opts interval.ModelOptions) (*Prediction, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := prof.NumThreads
	if n == 0 || len(prof.Threads) != n {
		return nil, fmt.Errorf("core: malformed profile for %q", prof.Name)
	}

	// Phase 1: per-epoch active times and stacks.
	epochStacks := make([][]interval.Stack, n)
	epochActive := make([][]float64, n)
	for t := 0; t < n; t++ {
		tp := prof.Threads[t]
		if len(tp.Epochs) != len(tp.Events) {
			return nil, fmt.Errorf("core: thread %d has %d epochs but %d events",
				t, len(tp.Epochs), len(tp.Events))
		}
		if k := len(tp.Events); k == 0 || tp.Events[k-1].Kind != trace.SyncThreadExit {
			return nil, fmt.Errorf("core: thread %d does not end with a thread exit", t)
		}
		stacks := make([]interval.Stack, len(tp.Epochs))
		active := make([]float64, len(tp.Epochs))
		for i, ep := range tp.Epochs {
			stacks[i] = interval.PredictEpochOpts(ep, &cfg, opts)
			active[i] = stacks[i].ActiveCycles()
		}
		epochStacks[t] = stacks
		epochActive[t] = active
	}

	// Phase 2: Algorithm 2.
	threads := make([]*symThread, n)
	for t := 0; t < n; t++ {
		threads[t] = &symThread{id: t, created: t == 0}
	}
	locks := make(map[uint32]*symLock)
	barriers := make(map[uint32]*symBarrier)
	condBarriers := make(map[uint32]*symBarrier)
	producerQs := make(map[uint32]*symProducer)
	joinWaiters := make(map[int][]int)
	ov := float64(cfg.SyncOverhead)

	wake := func(st *symThread, t float64) {
		if t < st.blockedAt {
			t = st.blockedAt
		}
		st.idle += t - st.blockedAt
		st.blocked = false
		st.clock = t + ov
	}
	block := func(st *symThread) {
		st.blocked = true
		st.blockedAt = st.clock
	}

	for {
		// "for Thread T in sorted(Threads, shortestTimeFirst())": pick the
		// runnable thread whose next synchronization event fires earliest
		// and proceed it to that event. Ordering by event-firing time (not
		// by current clock) keeps the symbolic execution causal: a thread
		// with a long epoch ahead of it must not overtake another thread's
		// earlier lock acquisition or item consumption.
		var cur *symThread
		var curFire float64
		allDone := true
		for _, st := range threads {
			if st.done {
				continue
			}
			allDone = false
			if !st.created || st.blocked {
				continue
			}
			fire := st.clock + epochActive[st.id][st.next]
			if cur == nil || fire < curFire {
				cur = st
				curFire = fire
			}
		}
		if allDone {
			break
		}
		if cur == nil {
			return nil, fmt.Errorf("core: symbolic execution deadlocked in %q", prof.Name)
		}

		tp := prof.Threads[cur.id]
		i := cur.next
		cur.next++
		// Advance through the epoch preceding event i.
		if a := epochActive[cur.id][i]; a > 0 {
			cur.intervals = append(cur.intervals, [2]float64{cur.clock, cur.clock + a})
			cur.clock += a
		}
		ev := tp.Events[i]
		switch ev.Kind {
		case trace.SyncBarrier, trace.SyncCondWaitMarker:
			if ev.Kind == trace.SyncCondWaitMarker && ev.Arg == 0 {
				// Producer-consumer consume.
				ps := producerQs[ev.Obj]
				if ps == nil {
					ps = &symProducer{}
					producerQs[ev.Obj] = ps
				}
				if ps.items > 0 {
					ps.items--
					t := ps.itemTimes[0]
					ps.itemTimes = ps.itemTimes[1:]
					if t > cur.clock {
						cur.idle += t - cur.clock
						cur.clock = t
					}
					cur.clock += ov
					break
				}
				block(cur)
				ps.queue = append(ps.queue, cur.id)
				break
			}
			m := barriers
			if ev.Kind == trace.SyncCondWaitMarker {
				m = condBarriers
			}
			bs := m[ev.Obj]
			if bs == nil {
				bs = &symBarrier{}
				m[ev.Obj] = bs
			}
			bs.arrived++
			if cur.clock > bs.maxTime {
				bs.maxTime = cur.clock
			}
			if bs.arrived >= ev.Arg {
				release := bs.maxTime
				for _, w := range bs.waiters {
					wake(threads[w], release)
				}
				cur.clock = release + ov
				bs.arrived = 0
				bs.waiters = bs.waiters[:0]
				bs.maxTime = 0
				break
			}
			block(cur)
			bs.waiters = append(bs.waiters, cur.id)
		case trace.SyncCondBroadcast, trace.SyncCondSignal:
			ps := producerQs[ev.Obj]
			if ps == nil {
				ps = &symProducer{}
				producerQs[ev.Obj] = ps
			}
			if len(ps.queue) > 0 {
				w := ps.queue[0]
				ps.queue = ps.queue[1:]
				wake(threads[w], cur.clock)
			} else {
				ps.items++
				ps.itemTimes = append(ps.itemTimes, cur.clock)
			}
			cur.clock += ov
		case trace.SyncLockAcquire:
			l := locks[ev.Obj]
			if l == nil {
				l = &symLock{}
				locks[ev.Obj] = l
			}
			if l.held {
				block(cur)
				l.queue = append(l.queue, cur.id)
				break
			}
			l.held = true
			l.holder = cur.id
			cur.clock += ov
		case trace.SyncLockRelease:
			l := locks[ev.Obj]
			if l != nil && l.held && l.holder == cur.id {
				if len(l.queue) > 0 {
					next := l.queue[0]
					l.queue = l.queue[1:]
					l.holder = next
					wake(threads[next], cur.clock)
				} else {
					l.held = false
				}
			}
			cur.clock += ov
		case trace.SyncThreadCreate:
			if ev.Arg > 0 && ev.Arg < n {
				child := threads[ev.Arg]
				child.created = true
				child.clock = cur.clock + ov
			}
			cur.clock += ov
		case trace.SyncThreadJoin:
			if ev.Arg >= 0 && ev.Arg < n {
				target := threads[ev.Arg]
				if !target.done {
					block(cur)
					joinWaiters[ev.Arg] = append(joinWaiters[ev.Arg], cur.id)
					break
				}
				if target.finish > cur.clock {
					cur.idle += target.finish - cur.clock
					cur.clock = target.finish
				}
			}
			cur.clock += ov
		case trace.SyncThreadExit:
			cur.done = true
			cur.finish = cur.clock
			for _, w := range joinWaiters[cur.id] {
				wake(threads[w], cur.clock)
			}
			delete(joinWaiters, cur.id)
		}
	}

	// Assemble the prediction.
	pred := &Prediction{}
	for t := 0; t < n; t++ {
		st := threads[t]
		if st.finish > pred.Cycles {
			pred.Cycles = st.finish
		}
		var stack interval.Stack
		for _, s := range epochStacks[t] {
			stack.Add(s)
		}
		stack.Sync = st.idle
		active := 0.0
		for _, iv := range st.intervals {
			active += iv[1] - iv[0]
		}
		pred.Threads = append(pred.Threads, ThreadPrediction{
			Instr:           stack.Instr,
			FinishCycle:     st.finish,
			ActiveCycles:    active,
			IdleCycles:      st.idle,
			Stack:           stack,
			EpochActive:     epochActive[t],
			ActiveIntervals: st.intervals,
		})
	}
	pred.Seconds = cfg.CyclesToSeconds(pred.Cycles)
	return pred, nil
}

// PredictMain is the MAIN baseline: the single-threaded interval model
// applied to the main thread's whole profile, used as the prediction for
// overall application execution time.
func PredictMain(prof *profiler.Profile, cfg arch.Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if len(prof.Threads) == 0 {
		return 0, fmt.Errorf("core: empty profile for %q", prof.Name)
	}
	st := interval.PredictThread(prof.Threads[0], &cfg)
	return st.ActiveCycles(), nil
}

// PredictCrit is the CRIT baseline: the single-threaded model applied to
// every thread; the slowest (critical) thread's time is the prediction.
func PredictCrit(prof *profiler.Profile, cfg arch.Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if len(prof.Threads) == 0 {
		return 0, fmt.Errorf("core: empty profile for %q", prof.Name)
	}
	crit := 0.0
	for _, tp := range prof.Threads {
		if c := interval.PredictThread(tp, &cfg).ActiveCycles(); c > crit {
			crit = c
		}
	}
	return crit, nil
}
