package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rppm/internal/engine"
	"rppm/internal/obs"
	"rppm/internal/profilefmt"
	"rppm/internal/profiler"
	"rppm/internal/stats"
	"rppm/internal/storefs"
	"rppm/internal/trace"
)

// CorruptSuffix is appended to an artifact's filename when the store
// quarantines it: the file failed CRC or structural validation (or its
// contents do not match the key its name encodes), so it is renamed out of
// the lookup namespace, never re-read, and kept for post-mortem (`rppm-diag
// fsck` reports quarantined files). The artifact is transparently
// regenerated; a successful re-spill under the original name lifts the
// quarantine.
const CorruptSuffix = storefs.CorruptSuffix

// StorePolicy tunes the artifact store's failure handling. The zero value
// selects the defaults noted per field.
type StorePolicy struct {
	// Attempts bounds tries per filesystem operation (default 3): the
	// first try plus retries of errors classified transient
	// (storefs.Transient). Content-level corruption is never retried —
	// re-reading the same bytes cannot heal a bad checksum.
	Attempts int
	// Backoff is the sleep before the first retry (default 5ms); each
	// further retry doubles it, capped at BackoffMax (default 100ms), with
	// ±50% jitter so a fleet of replicas sharing a struggling disk does
	// not retry in lockstep.
	Backoff    time.Duration
	BackoffMax time.Duration
	// BreakerThreshold trips a per-direction circuit breaker after this
	// many consecutive exhausted-retry failures (default 3): further
	// operations in that direction are skipped outright, so a dead disk
	// degrades the replica to in-memory-only service instead of taxing
	// every request with a full retry cycle.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before it
	// admits one half-open probe (default 15s). A successful probe closes
	// the breaker and normal spill/reload resumes; a failed one re-opens
	// it for another cooldown.
	BreakerCooldown time.Duration
}

func (p StorePolicy) withDefaults() StorePolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 5 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 100 * time.Millisecond
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 3
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 15 * time.Second
	}
	return p
}

// breaker is a consecutive-failure circuit breaker for one store
// direction (load or store).
type breaker struct {
	mu        sync.Mutex
	open      bool
	probing   bool // a half-open probe is in flight
	failures  int
	openUntil time.Time

	threshold int
	cooldown  time.Duration
	now       func() time.Time

	trips   atomic.Uint64
	skipped atomic.Uint64
}

// allow reports whether the caller may attempt the operation. While open,
// only the first caller past the cooldown is admitted (the half-open
// probe); everyone else is skipped until the probe reports back.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if !b.probing && !b.now().Before(b.openUntil) {
		b.probing = true
		return true
	}
	b.skipped.Add(1)
	return false
}

func (b *breaker) success() {
	b.mu.Lock()
	b.open = false
	b.probing = false
	b.failures = 0
	b.mu.Unlock()
}

// failure records an exhausted-retry failure; it returns true when this
// failure tripped (or re-tripped) the breaker open.
func (b *breaker) failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.open && b.probing {
		// The half-open probe failed: re-open for another cooldown.
		b.probing = false
		b.openUntil = b.now().Add(b.cooldown)
		b.trips.Add(1)
		return true
	}
	if !b.open && b.failures >= b.threshold {
		b.open = true
		b.probing = false
		b.openUntil = b.now().Add(b.cooldown)
		b.trips.Add(1)
		return true
	}
	return false
}

// state renders the breaker for /healthz and /metrics:
// 0 = closed (healthy), 1 = half-open (probing), 2 = open.
func (b *breaker) state() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case !b.open:
		return 0
	case b.probing || !b.now().Before(b.openUntil):
		return 1
	default:
		return 2
	}
}

// artifactStore is the fault-tolerant persistence layer between the
// engine's Load*/Store* hooks and a spill directory. All failure handling
// lives here, behind three rules:
//
//   - transient I/O errors are retried with capped exponential backoff and
//     jitter, then — if they persist — counted against a per-direction
//     circuit breaker that turns a dead disk into cheap skips;
//   - a file whose *content* is bad (checksum, structure, or key mismatch)
//     is quarantined: renamed to <name>.corrupt, counted, and never read
//     again; the artifact regenerates through the normal miss path;
//   - no failure in this layer is ever allowed to fail a request — the
//     hooks degrade to cache misses (load) or dropped spills (store).
type artifactStore struct {
	fs  storefs.FS
	dir string
	pol StorePolicy
	log *slog.Logger

	// now and sleep are injectable for deterministic tests.
	now   func() time.Time
	sleep func(time.Duration)

	loadBr, storeBr breaker

	mu          sync.Mutex
	quarantined map[string]struct{}

	retries     atomic.Uint64
	quarantines atomic.Uint64
	loadFails   atomic.Uint64
	storeFails  atomic.Uint64

	// loadLat and saveLat time each load/spill operation end to end
	// (including retries and backoff sleeps), feeding the /metrics
	// per-stage latency histograms.
	loadLat stats.LatencyHistogram
	saveLat stats.LatencyHistogram
}

func newArtifactStore(fsys storefs.FS, dir string, pol StorePolicy, log *slog.Logger) *artifactStore {
	if fsys == nil {
		fsys = storefs.OS
	}
	pol = pol.withDefaults()
	a := &artifactStore{
		fs:          fsys,
		dir:         dir,
		pol:         pol,
		log:         log,
		now:         time.Now,
		sleep:       time.Sleep,
		quarantined: make(map[string]struct{}),
	}
	for _, b := range []*breaker{&a.loadBr, &a.storeBr} {
		b.threshold = pol.BreakerThreshold
		b.cooldown = pol.BreakerCooldown
		b.now = func() time.Time { return a.now() }
	}
	return a
}

// cleanupTemps removes stale spill temp files left by a crash. Called once
// at startup; failures are logged, not fatal.
func (a *artifactStore) cleanupTemps() {
	n, err := storefs.CleanupTemps(a.fs, a.dir)
	if err != nil {
		a.log.Warn("store: startup temp cleanup failed", "dir", a.dir, "error", err)
		return
	}
	if n > 0 {
		a.log.Info("store: removed stale temp files", "dir", a.dir, "count", n)
	}
}

// backoffFor returns the jittered sleep before retry attempt i (1-based).
func (a *artifactStore) backoffFor(i int) time.Duration {
	d := a.pol.Backoff << uint(i-1)
	if d > a.pol.BackoffMax || d <= 0 {
		d = a.pol.BackoffMax
	}
	// ±50% jitter, never zero.
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

func (a *artifactStore) isQuarantined(path string) bool {
	a.mu.Lock()
	_, ok := a.quarantined[path]
	a.mu.Unlock()
	return ok
}

// quarantine takes path out of the lookup namespace: record it (so it is
// never opened again even if the rename fails), count it, and rename it to
// path + CorruptSuffix for post-mortem.
func (a *artifactStore) quarantine(path string, cause error) {
	a.mu.Lock()
	if _, dup := a.quarantined[path]; dup {
		a.mu.Unlock()
		return
	}
	a.quarantined[path] = struct{}{}
	a.mu.Unlock()
	a.quarantines.Add(1)
	if err := a.fs.Rename(path, path+CorruptSuffix); err != nil && !errors.Is(err, os.ErrNotExist) {
		a.log.Warn("store: quarantine rename failed", "path", path, "error", err)
	}
	a.log.Warn("store: quarantined corrupt artifact", "path", path, "cause", cause)
}

// liftQuarantine clears path's quarantine after a regenerated artifact was
// successfully re-spilled under the name.
func (a *artifactStore) liftQuarantine(path string) {
	a.mu.Lock()
	delete(a.quarantined, path)
	a.mu.Unlock()
}

// loadArtifact drives one read through the failure rules. read must return
// (nil) on success, os.ErrNotExist-wrapping errors on a plain miss, a
// transient error (storefs.Transient) on infrastructure failure, and any
// other error to declare the file's content bad.
func (a *artifactStore) loadArtifact(ctx context.Context, path string, read func() error) bool {
	ctx, sp := obs.StartSpan(ctx, "store-load")
	defer sp.End()
	sp.Annotate("file", filepath.Base(path))
	start := time.Now()
	defer func() { a.loadLat.Observe(time.Since(start)) }()
	if a.isQuarantined(path) {
		sp.Annotate("outcome", "quarantined")
		return false
	}
	if !a.loadBr.allow() {
		sp.Annotate("outcome", "breaker-open")
		return false
	}
	var err error
	for i := 0; i < a.pol.Attempts; i++ {
		if i > 0 {
			a.retries.Add(1)
			obs.Annotate(ctx, "retry", strconv.Itoa(i))
			a.sleep(a.backoffFor(i))
		}
		err = read()
		switch {
		case err == nil:
			a.loadBr.success()
			sp.Annotate("outcome", "ok")
			return true
		case errors.Is(err, os.ErrNotExist):
			// A miss, not a fault: the disk answered correctly.
			a.loadBr.success()
			sp.Annotate("outcome", "not-found")
			return false
		case !storefs.Transient(err):
			// Content-level rejection: the bytes are there but wrong.
			// Retrying cannot help; quarantine so the file is re-read
			// exactly zero more times, and regenerate via the miss path.
			a.quarantine(path, err)
			a.loadBr.success()
			sp.Annotate("outcome", "quarantined")
			return false
		}
	}
	a.loadFails.Add(1)
	sp.Annotate("outcome", "failed")
	if a.loadBr.failure() {
		obs.Annotate(ctx, "breaker", "tripped")
		a.log.Error("store: load breaker OPEN", "path", path, "error", err)
	} else {
		a.log.Warn("store: load failed", "path", path, "attempts", a.pol.Attempts, "error", err)
	}
	return false
}

// storeArtifact drives one spill through the failure rules. Spills are an
// optimization: every failure degrades to "not persisted" and the request
// that produced the artifact is never affected.
func (a *artifactStore) storeArtifact(ctx context.Context, path string, write func() error) {
	ctx, sp := obs.StartSpan(ctx, "store-save")
	defer sp.End()
	sp.Annotate("file", filepath.Base(path))
	start := time.Now()
	defer func() { a.saveLat.Observe(time.Since(start)) }()
	if !a.storeBr.allow() {
		sp.Annotate("outcome", "breaker-open")
		return
	}
	var err error
	for i := 0; i < a.pol.Attempts; i++ {
		if i > 0 {
			a.retries.Add(1)
			obs.Annotate(ctx, "retry", strconv.Itoa(i))
			a.sleep(a.backoffFor(i))
		}
		err = write()
		if err == nil {
			a.storeBr.success()
			a.liftQuarantine(path)
			sp.Annotate("outcome", "ok")
			return
		}
		if !storefs.Transient(err) {
			// Encoding rejected the value (a bug, not a disk problem):
			// log and drop, without charging the breaker.
			a.log.Error("store: spill rejected by encoder", "path", path, "error", err)
			a.storeBr.success()
			sp.Annotate("outcome", "rejected")
			return
		}
	}
	a.storeFails.Add(1)
	sp.Annotate("outcome", "failed")
	if a.storeBr.failure() {
		obs.Annotate(ctx, "breaker", "tripped")
		a.log.Error("store: store breaker OPEN", "path", path, "error", err)
	} else {
		a.log.Warn("store: spill failed", "path", path, "attempts", a.pol.Attempts, "error", err)
	}
}

// degraded reports whether either direction's breaker is not closed.
func (a *artifactStore) degraded() bool {
	return a.loadBr.state() != 0 || a.storeBr.state() != 0
}

// --- key → path naming ---------------------------------------------------

// tracePath encodes a cache key as a stable filename: benchmark, seed and
// the exact float bits of scale, so distinct keys can never collide and a
// reloaded file maps back to precisely the key that wrote it.
func (a *artifactStore) tracePath(k engine.Key) string {
	name := fmt.Sprintf("%s_%d_%016x.rpt", k.Bench, k.Seed, math.Float64bits(k.Scale))
	return filepath.Join(a.dir, name)
}

// ProfileSpillPath returns the file a profile for pk is persisted under in
// a trace dir: the tracePath scheme extended with the profiler options the
// profile was collected under, so the same workload profiled with different
// window parameters maps to distinct files. Exported so `rppm profile` can
// pre-seed a spill directory with exactly the names the server will look up.
func ProfileSpillPath(dir string, pk engine.ProfileKey) string {
	nc := 0
	if pk.Opts.NoCoherence {
		nc = 1
	}
	name := fmt.Sprintf("%s_%d_%016x_w%d_i%d_nc%d.rpp",
		pk.Bench, pk.Seed, math.Float64bits(pk.Scale),
		pk.Opts.WindowSize, pk.Opts.WindowInterval, nc)
	return filepath.Join(dir, name)
}

func (a *artifactStore) profilePath(pk engine.ProfileKey) string {
	return ProfileSpillPath(a.dir, pk)
}

// --- engine hooks --------------------------------------------------------

// errKeyMismatch is deliberately non-transient: a file whose contents do
// not match the key its name encodes is treated exactly like corruption
// (quarantined, regenerated), because serving it would answer the wrong
// workload.
type keyMismatchError struct{ detail string }

func (e *keyMismatchError) Error() string { return e.detail }

func (a *artifactStore) loadTrace(ctx context.Context, k engine.Key) (*trace.Recorded, bool) {
	path := a.tracePath(k)
	var rec *trace.Recorded
	ok := a.loadArtifact(ctx, path, func() error {
		r, err := trace.ReadFileFS(a.fs, path)
		if err != nil {
			return err
		}
		if r.Name() != k.Bench {
			return &keyMismatchError{fmt.Sprintf("trace names workload %q, key wants %q", r.Name(), k.Bench)}
		}
		rec = r
		return nil
	})
	return rec, ok
}

func (a *artifactStore) storeTrace(ctx context.Context, k engine.Key, rec *trace.Recorded) {
	path := a.tracePath(k)
	a.storeArtifact(ctx, path, func() error {
		return rec.WriteFileFS(a.fs, path)
	})
}

// loadProfile reloads a persisted profile on a cache miss: the path that
// lets a restarted replica, or a session that evicted the profile, serve
// cold predictions without running the profiling pass again.
func (a *artifactStore) loadProfile(ctx context.Context, pk engine.ProfileKey) (*profiler.Profile, bool) {
	path := a.profilePath(pk)
	var prof *profiler.Profile
	ok := a.loadArtifact(ctx, path, func() error {
		p, opts, err := profilefmt.ReadFileFS(a.fs, path)
		if err != nil {
			return err
		}
		// The filename encodes the key, but trust only the file contents: a
		// renamed or hand-placed file must not serve the wrong workload.
		if p.Name != pk.Bench || opts != pk.Opts {
			return &keyMismatchError{fmt.Sprintf(
				"profile contents (%q, %+v) do not match key", p.Name, opts)}
		}
		prof = p
		return nil
	})
	return prof, ok
}

func (a *artifactStore) storeProfile(ctx context.Context, pk engine.ProfileKey, prof *profiler.Profile) {
	path := a.profilePath(pk)
	a.storeArtifact(ctx, path, func() error {
		return profilefmt.WriteFileFS(a.fs, path, prof, pk.Opts)
	})
}
