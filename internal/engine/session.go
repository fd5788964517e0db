package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"rppm/internal/arch"
	"rppm/internal/core"
	"rppm/internal/interval"
	"rppm/internal/obs"
	"rppm/internal/profiler"
	"rppm/internal/sim"
	"rppm/internal/trace"
	"rppm/internal/workload"
)

// Key identifies one workload instantiation: benchmarks are keyed by name,
// so two Benchmark values with the same name are assumed interchangeable
// (true for the built-in suite, whose generators are pure functions of
// (seed, scale)).
type Key struct {
	Bench string
	Seed  uint64
	Scale float64
}

// recKey, ProfileKey, simKey and predKey key the session caches. All are
// comparable value types so they work as map keys directly.
type recKey struct{ Key }

// ProfileKey identifies one cached profile: the workload key plus the
// profiler options it was collected under. It is exported because the
// profile persistence hooks (LoadProfile/StoreProfile) receive it — the
// serving layer derives spill-file names from it.
type ProfileKey struct {
	Key
	Opts profiler.Options
}

type simKey struct {
	Key
	Cfg arch.Config
}

type predKey struct {
	Key
	Cfg   arch.Config
	Opts  profiler.Options
	Model interval.ModelOptions
}

// SessionOptions configure a session's resident cache. The zero value is
// the classic unbounded one-run session.
type SessionOptions struct {
	// MaxBytes bounds the resident bytes of completed cache entries
	// (recorded traces, profiles, simulation results, predictions,
	// size-accounted via their SizeBytes methods). When the budget is
	// exceeded, least-recently-used unpinned entries are evicted; entries
	// an in-flight request holds (pinned) are never evicted, so the
	// resident total may transiently overshoot while work is in flight.
	// Zero or negative means unbounded.
	MaxBytes int64

	// LoadRecorded, when non-nil, is consulted on a recorded-trace cache
	// miss before paying the capture pass — the serving layer's trace-dir
	// reload hook. A successful load counts as a trace load in Stats, and
	// no EventRecord is emitted. The loaded recording must replay
	// identically to a fresh capture (guaranteed by the trace file
	// format's differential round-trip test). The context is the
	// requesting caller's (request-scoped observability rides in it); the
	// hook must not use it for cancellation-sensitive cleanup.
	LoadRecorded func(context.Context, Key) (*trace.Recorded, bool)

	// StoreRecorded, when non-nil, receives every freshly captured
	// recording, synchronously from the capturing goroutine — the serving
	// layer's trace-dir spill hook. Loads do not re-store.
	StoreRecorded func(context.Context, Key, *trace.Recorded)

	// LoadProfile, when non-nil, is consulted on a profile cache miss
	// (including the miss after an eviction) before paying the profiling
	// pass — the serving layer's profile reload hook (artifact format v2,
	// internal/profilefmt). A successful load counts in
	// Stats.Profiles.Loads, and no EventProfile is emitted: the profiler
	// did not run. The loaded profile must drive bit-identical
	// predictions to a fresh profiling pass (guaranteed by the profile
	// format's differential round-trip test).
	LoadProfile func(context.Context, ProfileKey) (*profiler.Profile, bool)

	// StoreProfile, when non-nil, receives every freshly collected
	// profile, synchronously from the profiling goroutine. Loads do not
	// re-store.
	StoreProfile func(context.Context, ProfileKey, *profiler.Profile)
}

// entry is one singleflight cache slot: the first requester computes, every
// other requester waits on done. Completed entries carry their accounted
// size and a pin count; pinned entries (refs > 0, or still computing) are
// never evicted.
type entry struct {
	done chan struct{}
	val  any
	err  error

	key      any
	size     int64
	refs     int           // pins held by in-flight requests
	complete bool          // val/err are final (set under Session.mu)
	evicted  bool          // removed from the cache (value stays usable)
	elem     *list.Element // position in the unpinned-LRU list, nil if pinned
}

// Stats is a snapshot of a session's cache counters, the raw material for
// the serving layer's /metrics endpoint.
type Stats struct {
	Hits          uint64 // completed-entry cache hits
	Misses        uint64 // computations started
	Coalesced     uint64 // requests that attached to an in-flight computation
	Evictions     uint64 // completed entries evicted under the byte budget
	TraceLoads    uint64 // recordings loaded via LoadRecorded instead of captured
	BytesResident int64  // accounted bytes of completed cache entries
	Entries       int    // live cache entries, including in-flight ones

	// Profiles breaks down how profile requests were served.
	Profiles ProfileStats
}

// ProfileStats count how the session's profile requests were served: a
// resident entry, a reload through LoadProfile, or a profiling pass. An
// evicted profile is a plain miss, served by the reload when the hook is
// wired and by re-profiling otherwise.
type ProfileStats struct {
	Runs  uint64 // profiling passes executed (the expensive path)
	Loads uint64 // profiles loaded via LoadProfile instead of profiled
	Hits  uint64 // profile requests served by a resident or in-flight entry

	// CompactHits is always zero. It is kept only because the repository
	// benchmark (perfbench) reads it.
	CompactHits uint64
	// Promotions is always zero. It is kept only because the repository
	// benchmark (perfbench) reads it.
	Promotions uint64
}

// Session is a shared profile/simulation/prediction cache on top of an
// Engine's worker pool. All methods are safe for concurrent use; results
// for equal keys are computed exactly once per session (concurrent
// requesters coalesce onto the in-flight computation).
//
// An unbounded session (NewSession) never evicts: it is meant to live for
// one run (one CLI invocation, one test binary, one evaluation sweep). A
// budgeted session (NewSessionWith with MaxBytes set) is the resident
// store behind `rppm serve`: completed entries are size-accounted into an
// LRU and evicted when the budget is exceeded, except while an in-flight
// request holds them.
type Session struct {
	eng  *Engine
	opts SessionOptions

	mu      sync.Mutex
	entries map[any]*entry
	lru     *list.List // *entry values: completed, unpinned; front = most recent
	bytes   int64      // accounted size of completed entries

	hits, misses, coalesced, evictions, traceLoads uint64
	profStats                                      ProfileStats
}

// NewSession creates an empty unbounded session backed by the engine's
// worker pool.
func (e *Engine) NewSession() *Session {
	return e.NewSessionWith(SessionOptions{})
}

// NewSessionWith creates a session with an explicit cache configuration
// (memory budget, trace persistence hooks).
func (e *Engine) NewSessionWith(opts SessionOptions) *Session {
	return &Session{eng: e, opts: opts, entries: make(map[any]*entry), lru: list.New()}
}

// Engine returns the engine this session schedules on.
func (s *Session) Engine() *Engine { return s.eng }

// Stats returns a snapshot of the session's cache counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:          s.hits,
		Misses:        s.misses,
		Coalesced:     s.coalesced,
		Evictions:     s.evictions,
		TraceLoads:    s.traceLoads,
		BytesResident: s.bytes,
		Entries:       len(s.entries),
		Profiles:      s.profStats,
	}
}

// CacheEntryInfo describes one resident cache entry for runtime
// introspection (the serving layer's /debug/cache endpoint): what kind of
// artifact it is, which workload key it belongs to, how many bytes it
// accounts for, and whether an in-flight request currently pins it.
type CacheEntryInfo struct {
	Kind   string  `json:"kind"` // trace | profile | simulation | prediction
	Bench  string  `json:"bench"`
	Seed   uint64  `json:"seed"`
	Scale  float64 `json:"scale"`
	Config string  `json:"config,omitempty"` // simulation/prediction entries only
	Bytes  int64   `json:"bytes"`
	Pinned bool    `json:"pinned"`
	// Computing marks an entry whose first requester is still running; its
	// Bytes are not yet accounted.
	Computing bool `json:"computing,omitempty"`
	// Failed marks an entry caching a computation error.
	Failed bool `json:"failed,omitempty"`
}

// Snapshot returns a point-in-time view of every resident cache entry,
// largest first. It holds the session lock for the duration of the copy,
// so it is meant for debugging endpoints, not hot paths.
func (s *Session) Snapshot() []CacheEntryInfo {
	s.mu.Lock()
	out := make([]CacheEntryInfo, 0, len(s.entries))
	for k, en := range s.entries {
		info := CacheEntryInfo{
			Bytes:     en.size,
			Pinned:    en.refs > 0,
			Computing: !en.complete,
			Failed:    en.complete && en.err != nil,
		}
		switch key := k.(type) {
		case recKey:
			info.Kind = "trace"
			info.Bench, info.Seed, info.Scale = key.Bench, key.Seed, key.Scale
		case ProfileKey:
			info.Kind = "profile"
			info.Bench, info.Seed, info.Scale = key.Bench, key.Seed, key.Scale
		case simKey:
			info.Kind = "simulation"
			info.Bench, info.Seed, info.Scale = key.Bench, key.Seed, key.Scale
			info.Config = key.Cfg.Name
		case predKey:
			info.Kind = "prediction"
			info.Bench, info.Seed, info.Scale = key.Bench, key.Seed, key.Scale
			info.Config = key.Cfg.Name
		default:
			info.Kind = fmt.Sprintf("%T", k)
		}
		out = append(out, info)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Config < out[j].Config
	})
	return out
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// sizer is implemented by every cached result type (recorded traces,
// profiles, simulation results, predictions).
type sizer interface{ SizeBytes() int64 }

// entryOverhead approximates the cache bookkeeping per entry: the entry
// struct, its map slot, the done channel and the LRU element.
const entryOverhead = 192

func entrySize(v any) int64 {
	if sz, ok := v.(sizer); ok {
		return sz.SizeBytes() + entryOverhead
	}
	return entryOverhead
}

// get returns the entry for k, computing it via fn exactly once, with the
// entry pinned: the caller must release() it once the value is no longer in
// use, at which point the entry becomes evictable. Duplicate callers block
// until the in-flight computation finishes (or their own ctx is done), and
// retry when it was forgotten on the computing caller's cancellation (see
// finish). get itself returns an error only for the caller's own context;
// computation failures are cached and ride in the entry.
func (s *Session) get(ctx context.Context, k any, fn func(context.Context) (any, error)) (*entry, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		en, owner := s.claimLocked(k)
		if owner {
			s.mu.Unlock()
			if !s.fill(ctx, en, fn) {
				return nil, en.err
			}
			return en, nil
		}
		if en.complete {
			// Completed entries inside the map are never marked evicted, so
			// this hit can pin unconditionally.
			s.pinLocked(en)
			s.hits++
			s.mu.Unlock()
			return en, nil
		}
		s.coalesced++
		s.mu.Unlock()
		select {
		case <-en.done:
			if en.err != nil && isCtxErr(en.err) {
				continue // the computing caller was canceled, not us: retry
			}
			// Pin unless the entry was evicted in the window between the
			// computer's release and this wake-up; an evicted entry's value
			// stays valid, it just no longer occupies the cache.
			s.mu.Lock()
			if !en.evicted {
				s.pinLocked(en)
			}
			s.mu.Unlock()
			return en, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// claimLocked returns k's entry and whether the caller now owns it: an
// absent key gets a fresh entry, pinned for its owner and counted as a
// miss, which the owner must publish through finish. The caller holds
// s.mu.
func (s *Session) claimLocked(k any) (*entry, bool) {
	if en, ok := s.entries[k]; ok {
		return en, false
	}
	en := &entry{done: make(chan struct{}), key: k, refs: 1}
	s.entries[k] = en
	s.misses++
	return en, true
}

// fill computes an entry the caller owns via fn and publishes the outcome,
// reporting whether the entry stayed cached (see finish).
func (s *Session) fill(ctx context.Context, en *entry, fn func(context.Context) (any, error)) bool {
	defer s.abandonOnPanic(en)
	val, err := fn(ctx)
	return s.finish(en, val, err)
}

// finish publishes the outcome of an owned entry's computation and wakes
// its waiters. A context error is the owner's cancellation, not the key's
// result: the entry is forgotten (removed before done is closed), so both
// a later call and a waiter with a live context recompute it instead of
// inheriting the cancellation. Any other outcome, a failure included,
// completes the entry: its size is charged and the byte budget enforced.
// finish reports whether the entry stayed cached, still pinned for the
// owner.
func (s *Session) finish(en *entry, val any, err error) bool {
	forget := err != nil && isCtxErr(err)
	s.mu.Lock()
	en.val, en.err = val, err
	if forget {
		delete(s.entries, en.key)
		en.evicted = true
	} else {
		en.complete = true
		en.size = entrySize(val)
		s.bytes += en.size
		s.evictLocked()
	}
	s.mu.Unlock()
	close(en.done)
	return !forget
}

// abandonOnPanic is deferred by the owner of entries. A panic in their
// computation (a handler bug, a corrupt artifact tripping an invariant)
// must not strand them: waiters would block on done forever and every
// later request for the key would coalesce onto the wreck. So every owned
// entry not yet finished is forgotten, like a cancellation, except that
// the cached error makes current waiters fail rather than retry; the
// panic then keeps unwinding to the caller's recovery.
func (s *Session) abandonOnPanic(owned ...*entry) {
	r := recover()
	if r == nil {
		return
	}
	s.mu.Lock()
	for _, en := range owned {
		if en.complete || en.evicted {
			continue // already finished
		}
		delete(s.entries, en.key)
		en.evicted = true
		en.err = fmt.Errorf("engine: computing %T cache entry: panic: %v", en.key, r)
		close(en.done)
	}
	s.mu.Unlock()
	panic(r)
}

// pinLocked pins a cached entry for one more holder, taking it off the
// LRU list. The caller holds s.mu.
func (s *Session) pinLocked(en *entry) {
	en.refs++
	if en.elem != nil {
		s.lru.Remove(en.elem)
		en.elem = nil
	}
}

// release drops one pin. When the last pin drops, the entry joins the LRU
// and becomes evictable under the session's byte budget.
func (s *Session) release(en *entry) {
	s.mu.Lock()
	if en.complete && !en.evicted && en.refs > 0 {
		en.refs--
		if en.refs == 0 {
			en.elem = s.lru.PushFront(en)
			s.evictLocked()
		}
	}
	s.mu.Unlock()
}

// evictLocked evicts least-recently-used unpinned entries until the
// resident total fits the budget. Pinned entries are never in the LRU list,
// so an entry an in-flight request holds is structurally unevictable.
func (s *Session) evictLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.bytes > s.opts.MaxBytes {
		back := s.lru.Back()
		if back == nil {
			return
		}
		en := back.Value.(*entry)
		s.lru.Remove(back)
		en.elem = nil
		en.evicted = true
		delete(s.entries, en.key)
		s.bytes -= en.size
		s.evictions++
	}
}

// stage resolves one pipeline stage's cache entry k under the stage's
// span sp, computing it via compute on a miss, and closes sp through
// endStageSpan. The value comes back pinned: the caller must invoke unpin
// when done using it. A cached computation error is returned already
// unpinned.
func (s *Session) stage(ctx context.Context, sp *obs.Span, k any, compute func(context.Context) (any, error)) (v any, unpin func(), err error) {
	computed := false
	en, err := s.get(ctx, k, func(ctx context.Context) (any, error) {
		computed = true
		return compute(ctx)
	})
	if err == nil && en.err != nil {
		s.release(en)
		err = en.err
	}
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	endStageSpan(sp, computed, en.val)
	return en.val, func() { s.release(en) }, nil
}

// endStageSpan closes a pipeline-stage span with the cache outcome (miss
// when this caller computed the value, hit otherwise) and the accounted
// bytes of the value it touched. Nil-safe, so the untraced path pays one
// nil check.
func endStageSpan(sp *obs.Span, computed bool, v any) {
	if sp == nil {
		return
	}
	if computed {
		sp.Annotate("cache", "miss")
	} else {
		sp.Annotate("cache", "hit")
	}
	if sz, ok := v.(sizer); ok {
		sp.Annotate("bytes", strconv.FormatInt(sz.SizeBytes(), 10))
	}
	sp.End()
}

// run does one stage's leaf work under a pool slot, noting the slot's
// queue wait on the stage's span sp. When work succeeds, run emits ev with
// the work's duration and the wait; a config-batched simulation passes its
// configs as batch and gets one ev per config, sharing both evenly. keep,
// if set, then receives the value, still under the slot: the persistence
// hooks, whose writes do not count toward the stage's duration. Slots are
// held only around leaf work, never while waiting on another cache entry,
// so acquiring one cannot deadlock.
func (s *Session) run(ctx context.Context, sp *obs.Span, ev Event, batch []arch.Config, work func() (any, error), keep func(any)) (any, error) {
	wait, err := s.eng.acquireTimed(ctx)
	if err != nil {
		return nil, err
	}
	defer s.eng.release()
	annotateWait(sp, wait)
	start := time.Now()
	v, err := work()
	if err != nil {
		return nil, err
	}
	n := time.Duration(max(len(batch), 1))
	ev.Duration, ev.Wait = time.Since(start)/n, wait/n
	if batch == nil {
		s.eng.emit(ev)
	}
	for _, cfg := range batch {
		ev.Config = cfg.Name
		s.eng.emit(ev)
	}
	if keep != nil {
		keep(v)
	}
	return v, nil
}

// load consults a persistence reload hook, when one is wired, under a pool
// slot like any other artifact I/O, noting the queue wait on sp. A reload
// costs no generation and no profiling pass.
func load[K, V any](ctx context.Context, s *Session, sp *obs.Span, hook func(context.Context, K) (V, bool), k K) (v V, ok bool, err error) {
	if hook == nil {
		return v, false, nil
	}
	wait, err := s.eng.acquireTimed(ctx)
	if err != nil {
		return v, false, err
	}
	// The hook is serving-layer code; release the slot on its panic-unwind
	// too, or N panics would wedge an N-slot pool.
	defer s.eng.release()
	annotateWait(sp, wait)
	v, ok = hook(ctx, k)
	return v, ok, nil
}

// annotateWait records a non-trivial pool-slot queue wait on the stage's
// span. Nil-safe.
func annotateWait(sp *obs.Span, wait time.Duration) {
	if sp == nil || wait <= 0 {
		return
	}
	sp.Annotate("pool_wait_us", strconv.FormatInt(wait.Microseconds(), 10))
}

// event is the progress event of one computation on k's workload.
func (k Key) event(kind EventKind, config string) Event {
	return Event{Kind: kind, Bench: k.Bench, Config: config, Seed: k.Seed, Scale: k.Scale}
}

// Recorded returns the packed replayable trace of (bm, seed, scale),
// capturing it at most once per session. The capture pass is the only time
// the session pays prng-driven stream generation: the profiler and every
// simulator configuration replay the recording through independent decode
// cursors, which is what makes an N-configuration sweep cost one
// generation plus N cheap replays instead of N regenerations.
func (s *Session) Recorded(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64) (*trace.Recorded, error) {
	rec, unpin, err := s.recordedPinned(ctx, bm, seed, scale)
	if err != nil {
		return nil, err
	}
	unpin()
	return rec, nil
}

// recordedPinned is Recorded with the cache entry pinned: consumers that
// replay the recording (profiler, simulator) hold the pin for the duration
// of the replay, so a budgeted session cannot evict a trace an in-flight
// request is executing.
func (s *Session) recordedPinned(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64) (*trace.Recorded, func(), error) {
	k := Key{bm.Name, seed, scale}
	ctx, sp := obs.StartSpan(ctx, "record")
	v, unpin, err := s.stage(ctx, sp, recKey{k}, func(ctx context.Context) (any, error) {
		// Reload hook first: a persisted trace is much cheaper than the
		// generation pass (and does not need the program built at all).
		rec, ok, err := load(ctx, s, sp, s.opts.LoadRecorded, k)
		if err != nil {
			return nil, err
		}
		if ok {
			s.mu.Lock()
			s.traceLoads++
			s.mu.Unlock()
			obs.Annotate(ctx, "trace_source", "persisted")
			return rec, nil
		}
		// The program is not cached on its own: the recording made from
		// it is, and nothing else consumes it.
		bctx, bsp := obs.StartSpan(ctx, "build")
		prog, err := s.run(bctx, bsp, k.event(EventBuild, ""), nil,
			func() (any, error) { return bm.Build(seed, scale), nil }, nil)
		if err != nil {
			bsp.End()
			return nil, err
		}
		endStageSpan(bsp, true, prog)
		return s.run(ctx, sp, k.event(EventRecord, ""), nil,
			func() (any, error) { return trace.Record(prog.(trace.Program)) },
			func(v any) {
				if s.opts.StoreRecorded != nil {
					s.opts.StoreRecorded(ctx, k, v.(*trace.Recorded))
				}
			})
	})
	if err != nil {
		return nil, nil, err
	}
	return v.(*trace.Recorded), unpin, nil
}

// Profile returns the microarchitecture-independent profile of
// (bm, seed, scale) under the engine's default profiler options, collecting
// it at most once per session.
func (s *Session) Profile(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64) (*profiler.Profile, error) {
	return s.ProfileOpts(ctx, bm, seed, scale, s.eng.opts.Profiler)
}

// ProfileOpts is Profile with explicit profiler options (used by the
// ablation studies, which profile with individual mechanisms disabled).
// Profiles with different options are cached independently.
func (s *Session) ProfileOpts(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64, opts profiler.Options) (*profiler.Profile, error) {
	prof, unpin, err := s.profilePinned(ctx, bm, seed, scale, opts)
	if err != nil {
		return nil, err
	}
	unpin()
	return prof, nil
}

// profilePinned is ProfileOpts with the cache entry pinned for the caller.
// On a miss the persistence hook is consulted first, then the profiler
// replays the recorded trace, which stays pinned while it does.
func (s *Session) profilePinned(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64, opts profiler.Options) (*profiler.Profile, func(), error) {
	pk := ProfileKey{Key{bm.Name, seed, scale}, opts}
	ctx, sp := obs.StartSpan(ctx, "profile")
	computed := false
	v, unpin, err := s.stage(ctx, sp, pk, func(ctx context.Context) (any, error) {
		computed = true
		prof, ok, err := load(ctx, s, sp, s.opts.LoadProfile, pk)
		if err != nil {
			return nil, err
		}
		if ok {
			s.mu.Lock()
			s.profStats.Loads++
			s.mu.Unlock()
			obs.Annotate(ctx, "profile_source", "persisted")
			return prof, nil
		}
		rec, unpinRec, err := s.recordedPinned(ctx, bm, seed, scale)
		if err != nil {
			return nil, err
		}
		defer unpinRec()
		obs.Annotate(ctx, "profile_source", "profiler")
		return s.run(ctx, sp, pk.event(EventProfile, ""), nil,
			func() (any, error) { return profiler.Run(rec, opts) },
			func(v any) {
				s.mu.Lock()
				s.profStats.Runs++
				s.mu.Unlock()
				if s.opts.StoreProfile != nil {
					s.opts.StoreProfile(ctx, pk, v.(*profiler.Profile))
				}
			})
	})
	if err != nil {
		return nil, nil, err
	}
	if !computed {
		s.mu.Lock()
		s.profStats.Hits++
		s.mu.Unlock()
	}
	return v.(*profiler.Profile), unpin, nil
}

// Simulate returns the cycle-level reference simulation of (bm, seed,
// scale) on cfg, running it at most once per session and configuration.
func (s *Session) Simulate(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64, cfg arch.Config) (*sim.Result, error) {
	return s.simulateOn(ctx, bm, seed, scale, cfg, nil)
}

// simulateOn is Simulate with an optional lazily-resolved replay view of
// the workload's recording: the sweep passes a shared once-guarded
// trace.Decode so all its configurations consume zero-copy column windows
// of one decoded trace. progFn is only invoked on a simulation cache miss
// — a fully warm sweep never decodes anything. The program it returns
// must replay bit-identically to the recording (trace.Decode guarantees
// this); results share the simulation cache either way.
func (s *Session) simulateOn(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64, cfg arch.Config, progFn func() trace.Program) (*sim.Result, error) {
	k := Key{bm.Name, seed, scale}
	ctx, sp := obs.StartSpan(ctx, "simulate")
	sp.Annotate("config", cfg.Name)
	v, unpin, err := s.stage(ctx, sp, simKey{k, cfg}, func(ctx context.Context) (any, error) {
		var p trace.Program
		if progFn != nil {
			p = progFn()
		}
		if p == nil {
			rec, unpinRec, err := s.recordedPinned(ctx, bm, seed, scale)
			if err != nil {
				return nil, err
			}
			defer unpinRec()
			p = rec
		}
		return s.run(ctx, sp, k.event(EventSimulate, cfg.Name), nil,
			func() (any, error) { return sim.Run(p, cfg) }, nil)
	})
	if err != nil {
		return nil, err
	}
	unpin()
	return v.(*sim.Result), nil
}

// SimulateSweep runs the cycle-level reference simulation of (bm, seed,
// scale) on every configuration in cfgs, fanning the configurations out
// across the engine's worker pool. The workload's trace is generated and
// recorded exactly once; each pool job simulates a batch of configurations
// in one config-batched sim.RunBatch pass over the shared decoded trace
// (batch width chosen automatically from the config count and the pool
// size), so the sweep costs one capture plus N cheap replay-simulations —
// and the trace columns each batch reads stay hot in the host cache.
//
// Results are returned in cfgs order and are bit-identical to calling
// Simulate per configuration. Sweeps share the session's simulation cache:
// configurations already simulated this session (by Simulate or an earlier
// sweep) are returned from cache, and later Simulate calls reuse sweep
// results.
func (s *Session) SimulateSweep(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64, cfgs []arch.Config) ([]*sim.Result, error) {
	sims, _, err := s.sweep(ctx, bm, seed, scale, cfgs, false, 0)
	return sims, err
}

// SimulatePredictSweep is SimulateSweep plus the matching RPPM model
// predictions, computed inside the same fan-out rather than as a serial
// post-pass: prediction i runs as its own pool job concurrently with the
// simulations, so a warm-profile sweep's predictions cost no extra wall
// time. Both result slices are in cfgs order and bit-identical to
// per-configuration Simulate and Predict calls (they share the same
// caches).
func (s *Session) SimulatePredictSweep(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64, cfgs []arch.Config) ([]*sim.Result, []*core.Prediction, error) {
	return s.sweep(ctx, bm, seed, scale, cfgs, true, 0)
}

// maxBatchWidth caps the automatic batch width: beyond a handful of
// interleaved engines the simulated cache state (megabytes of tag arrays
// per configuration) outgrows the host caches and the locality win of
// batching inverts.
const maxBatchWidth = 8

// batchMinInstrs is the trace size below which the automatic width stays
// at one config per job. Batching exists to stop a sweep from streaming
// the decoded trace (~28 B/instruction) through the host memory hierarchy
// once per configuration; below ~256 Ki instructions the whole column set
// is outer-cache-resident anyway, so interleaving has nothing to amortize
// and only costs: k live simulator states instead of one, and no allocator
// reuse of the just-freed hierarchy between consecutive configs. Measured
// on the 16-config kmeans sweep (1.2 MiB trace), forced width 8 is ~40%
// slower than width 1; on the 640k-instruction sweep micro-benchmark
// (18 MiB trace), width 8 is ~1.6× faster.
const batchMinInstrs = 256 << 10

// autoBatchWidth picks the configs-per-job width for a sweep of n
// configurations on a pool of workers simulating a recorded trace of
// instrs instructions: one config per job when the trace is small enough
// to be cache-resident (see batchMinInstrs), otherwise just enough that
// one batched job per worker covers the sweep (ceil(n/workers)), capped
// at maxBatchWidth. A single-worker pool therefore runs maximally
// batched on large traces; a pool wider than the sweep degenerates to
// one config per job.
func autoBatchWidth(n, workers int, instrs uint64) int {
	if instrs < batchMinInstrs {
		return 1
	}
	if workers < 1 {
		workers = 1
	}
	k := (n + workers - 1) / workers
	if k < 1 {
		k = 1
	}
	if k > maxBatchWidth {
		k = maxBatchWidth
	}
	return k
}

// sweep runs SimulateSweep (and, with predict, SimulatePredictSweep)
// with batch configurations per pool job; batch <= 0 selects
// autoBatchWidth. The width is a scheduling choice only: results are
// bit-identical at every width, which tests check by forcing widths here.
func (s *Session) sweep(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64, cfgs []arch.Config, predict bool, batch int) ([]*sim.Result, []*core.Prediction, error) {
	// Capture the recording before fanning out, so the sweep's workers all
	// attach to the one in-flight capture instead of racing to start it.
	// The pin is held across the whole fan-out: even when the sweep's
	// results overflow a budgeted session, the one trace every
	// configuration replays is captured exactly once.
	rec, unpin, err := s.recordedPinned(ctx, bm, seed, scale)
	if err != nil {
		return nil, nil, err
	}
	defer unpin()
	// Decode the packed words into struct-of-arrays form at most once for
	// the whole sweep: every configuration that actually simulates replays
	// zero-copy column windows instead of re-decoding the stream. The
	// decode is lazy (first cache miss) so a warm sweep stays a pure
	// cache-lookup pass, and the decoded view is transient — it lives for
	// this sweep only (about 28 bytes per instruction) and is bit-identical
	// to cursor replay, so cached simulation results remain interchangeable
	// with per-configuration Simulate calls.
	var decOnce sync.Once
	var dec *trace.Decoded
	decoded := func() trace.Program {
		decOnce.Do(func() {
			// The decode runs inside whichever fan-out job misses first; the
			// span is attributed to the request that paid for it.
			_, dsp := obs.StartSpan(ctx, "decode")
			dec = trace.Decode(rec)
			if dsp != nil {
				dsp.Annotate("bytes", strconv.FormatInt(dec.SizeBytes(), 10))
				dsp.End()
			}
		})
		return dec
	}
	n := len(cfgs)
	if batch <= 0 {
		batch = autoBatchWidth(n, s.eng.Workers(), rec.Instructions())
	}
	groups := 0
	if n > 0 {
		groups = (n + batch - 1) / batch
	}
	sims := make([]*sim.Result, n)
	var preds []*core.Prediction
	jobs := groups
	if predict {
		preds = make([]*core.Prediction, n)
		jobs = groups + n
	}
	err = s.ForEach(ctx, jobs, func(ctx context.Context, i int) error {
		if i < groups {
			lo := i * batch
			hi := lo + batch
			if hi > n {
				hi = n
			}
			if hi-lo == 1 {
				// A single-config group gains nothing from the batch
				// machinery (claim bookkeeping, RunBatch framing) — take
				// the plain singleflight path, which is what the batch
				// path coalesces onto anyway.
				res, err := s.simulateOn(ctx, bm, seed, scale, cfgs[lo], decoded)
				if err != nil {
					return err
				}
				sims[lo] = res
				return nil
			}
			return s.simulateBatch(ctx, bm, seed, scale, cfgs[lo:hi], sims[lo:hi], decoded)
		}
		j := i - groups
		pred, err := s.Predict(ctx, bm, seed, scale, cfgs[j])
		if err != nil {
			return err
		}
		preds[j] = pred
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return sims, preds, nil
}

// simulateBatch resolves one batch of sweep configurations against the
// simulation cache and computes every missing one in a single
// config-batched sim.RunBatch pass over the shared decoded trace, under
// one pool slot. It claims the missing keys as owned entries, exactly as
// get would one at a time, and publishes each through finish; a panic in
// the pass abandons them all. Configurations already present, completed
// or in flight, are fetched through simulateOn, which pins, coalesces and
// retries as usual. One EventSimulate is emitted per computed
// configuration with the batch's amortized duration.
func (s *Session) simulateBatch(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64, cfgs []arch.Config, out []*sim.Result, progFn func() trace.Program) error {
	k := Key{bm.Name, seed, scale}
	var owned []*entry
	var batch []arch.Config
	var at []int // index in cfgs of each owned entry
	s.mu.Lock()
	for i := range cfgs {
		if cfgs[i].Validate() != nil {
			// An invalid configuration would fail the whole RunBatch call
			// and cache that failure for every claimed config; routing it
			// through simulateOn below caches the failure on its own entry
			// only, exactly as a per-config sweep would.
			continue
		}
		if en, owner := s.claimLocked(simKey{k, cfgs[i]}); owner {
			owned, batch, at = append(owned, en), append(batch, cfgs[i]), append(at, i)
		}
	}
	s.mu.Unlock()

	if len(owned) > 0 {
		defer s.abandonOnPanic(owned...)
		bctx, sp := obs.StartSpan(ctx, "simulate-batch")
		sp.Annotate("width", strconv.Itoa(len(owned)))
		sp.Annotate("cache", "miss")
		v, err := s.run(bctx, sp, k.event(EventSimulate, ""), batch,
			func() (any, error) { return sim.RunBatch(progFn(), batch) }, nil)
		sp.End()
		for j, en := range owned {
			var val any
			if err == nil {
				res := v.([]*sim.Result)[j]
				out[at[j]], val = res, res
			}
			if s.finish(en, val, err) {
				s.release(en)
			}
		}
		if err != nil {
			return err
		}
	}

	for i := range cfgs {
		if out[i] != nil {
			continue
		}
		res, err := s.simulateOn(ctx, bm, seed, scale, cfgs[i], progFn)
		if err != nil {
			return err
		}
		out[i] = res
	}
	return nil
}

// Predict returns the RPPM prediction for (bm, seed, scale) on cfg,
// profiling the workload first if the session has not yet done so.
func (s *Session) Predict(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64, cfg arch.Config) (*core.Prediction, error) {
	return s.PredictModel(ctx, bm, seed, scale, cfg, s.eng.opts.Profiler, interval.ModelOptions{})
}

// PredictModel is Predict with explicit profiler and interval-model
// options: the ablation studies disable individual profiling or model
// mechanisms. Each options combination is cached independently.
func (s *Session) PredictModel(ctx context.Context, bm workload.Benchmark, seed uint64, scale float64, cfg arch.Config, profOpts profiler.Options, modelOpts interval.ModelOptions) (*core.Prediction, error) {
	k := Key{bm.Name, seed, scale}
	ctx, sp := obs.StartSpan(ctx, "predict")
	sp.Annotate("config", cfg.Name)
	v, unpin, err := s.stage(ctx, sp, predKey{k, cfg, profOpts, modelOpts}, func(ctx context.Context) (any, error) {
		prof, unpinProf, err := s.profilePinned(ctx, bm, seed, scale, profOpts)
		if err != nil {
			return nil, err
		}
		defer unpinProf()
		return s.run(ctx, sp, k.event(EventPredict, cfg.Name), nil,
			func() (any, error) { return core.PredictOpts(prof, cfg, modelOpts) }, nil)
	})
	if err != nil {
		return nil, err
	}
	unpin()
	return v.(*core.Prediction), nil
}

// ForEach runs f(ctx, i) for every i in [0, n) concurrently, bounded only
// by the engine's worker pool (f should do its heavy work through Session
// calls, which claim pool slots themselves). The first error cancels the
// shared context, stopping pending jobs, and is returned after every
// goroutine has exited; among the failures actually recorded, the
// lowest-index genuine error is preferred over secondary cancellations
// (which job fails first versus gets cancelled can vary with scheduling).
func (s *Session) ForEach(ctx context.Context, n int, f func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	// A panic in a job goroutine would crash the process before any
	// recovery up the caller's stack could run (a server's panic middleware
	// lives on a different goroutine than the fan-out jobs). Capture the
	// first panic, cancel the rest, and re-throw it from the caller's
	// goroutine so it unwinds — and is recoverable — exactly like a panic
	// in serial code.
	var panicOnce sync.Once
	var panicked any
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
					cancel()
				}
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			if err := f(ctx, i); err != nil {
				errs[i] = err
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	// Prefer a real failure over a secondary cancellation error.
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return err
	}
	return ctxErr
}
