// Package engine is the concurrent experiment-orchestration layer: it owns
// the profile→predict→simulate pipeline that every entry point (the public
// rppm API, cmd/rppm, cmd/rppm-experiments, the examples and the
// experiments harnesses) drives.
//
// The engine provides two things the paper's "profile once, predict many"
// promise needs at system scale:
//
//   - A bounded worker pool: heavy jobs (workload profiling, cycle-level
//     simulation, model prediction) fan out across goroutines but never
//     exceed the configured parallelism, so a full-suite evaluation runs as
//     fast as the hardware allows without oversubscribing it.
//
//   - A keyed, singleflight-style result cache (Session): each
//     (benchmark, seed, scale) is built and profiled exactly once, and each
//     (benchmark, seed, scale, config) is simulated and predicted exactly
//     once, no matter how many tables, figures or ablations ask for it
//     concurrently. Duplicate requests block on the in-flight computation
//     instead of repeating it.
//
// Parallelism never changes results: the engine parallelizes across
// independent jobs, never inside one, and every job is a deterministic pure
// function of its inputs, so parallel runs are bit-identical to serial
// ones (see TestParallelMatchesSerial).
package engine

import (
	"context"
	"runtime"
	"time"

	"rppm/internal/profiler"
)

// EventKind identifies the pipeline stage a progress Event reports.
type EventKind int

const (
	// EventBuild: a workload was instantiated from its generator.
	EventBuild EventKind = iota
	// EventProfile: a microarchitecture-independent profile was collected.
	EventProfile
	// EventSimulate: a cycle-level reference simulation completed.
	EventSimulate
	// EventPredict: an RPPM (or MAIN/CRIT baseline) prediction completed.
	EventPredict
	// EventRecord: a workload's packed replayable trace was captured. The
	// capture is the single generation pass whose recording every profile
	// and every simulator configuration replays.
	EventRecord
)

var eventNames = [...]string{"build", "profile", "simulate", "predict", "record"}

func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "unknown"
}

// Event is one completed (non-cached) unit of work. Cache hits do not emit
// events, so a sink counting EventProfile events observes exactly how many
// times the profiler actually ran.
type Event struct {
	Kind     EventKind
	Bench    string
	Config   string // target configuration name (simulate/predict only)
	Seed     uint64
	Scale    float64
	Duration time.Duration
	// Wait is how long the job queued for a worker-pool slot before
	// Duration started: Wait+Duration is the stage's contribution to the
	// caller's wall time, and a large Wait with a small Duration means the
	// pool, not the work, is the bottleneck.
	Wait time.Duration
}

// ProgressFunc receives progress events. It may be called concurrently from
// multiple worker goroutines and must be safe for concurrent use.
type ProgressFunc func(Event)

// Options configure an Engine. The zero value selects defaults.
type Options struct {
	// Workers bounds the number of concurrently executing heavy jobs
	// (profiling, simulation, prediction). Zero or negative selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Profiler sets the default profiling options used by Session.Profile.
	// The zero value selects the profiler's defaults.
	Profiler profiler.Options
	// Progress, when non-nil, receives an Event for every completed
	// non-cached unit of work.
	Progress ProgressFunc
}

// Engine owns the worker pool. Sessions created from the same engine share
// its concurrency budget but have independent caches.
type Engine struct {
	opts  Options
	slots chan struct{}
}

// New creates an engine with the given options.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{opts: opts, slots: make(chan struct{}, w)}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return cap(e.slots) }

// ProfilerOptions returns the engine's default profiling options.
func (e *Engine) ProfilerOptions() profiler.Options { return e.opts.Profiler }

func (e *Engine) release() { <-e.slots }

// acquireTimed claims a worker slot, or fails when ctx is done first. It
// reports how long the caller queued for the slot (zero when one was free
// immediately), feeding Event.Wait and the per-stage span attribution.
func (e *Engine) acquireTimed(ctx context.Context) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	select {
	case e.slots <- struct{}{}:
		return 0, nil
	default:
	}
	start := time.Now()
	select {
	case e.slots <- struct{}{}:
		return time.Since(start), nil
	case <-ctx.Done():
		return time.Since(start), ctx.Err()
	}
}

func (e *Engine) emit(ev Event) {
	if e.opts.Progress != nil {
		e.opts.Progress(ev)
	}
}
