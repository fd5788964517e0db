package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rppm/internal/arch"
	"rppm/internal/profiler"
	"rppm/internal/workload"
)

const (
	testSeed  = uint64(1)
	testScale = 0.05
)

// counter is a concurrency-safe progress sink counting events by kind.
type counter struct {
	mu     sync.Mutex
	counts map[EventKind]int
}

func newCounter() *counter { return &counter{counts: make(map[EventKind]int)} }

func (c *counter) sink(ev Event) {
	c.mu.Lock()
	c.counts[ev.Kind]++
	c.mu.Unlock()
}

func (c *counter) get(k EventKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[k]
}

func mustBench(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	bm, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestCacheDeduplicates: N concurrent consumers of the same (benchmark,
// seed, scale) trigger exactly one build, one profile and one simulation.
func TestCacheDeduplicates(t *testing.T) {
	c := newCounter()
	s := New(Options{Workers: 8, Progress: c.sink}).NewSession()
	bm := mustBench(t, "swaptions")
	target := arch.Base()

	const consumers = 16
	ctx := context.Background()
	profiles := make([]*profiler.Profile, consumers)
	err := s.ForEach(ctx, consumers, func(ctx context.Context, i int) error {
		prof, err := s.Profile(ctx, bm, testSeed, testScale)
		if err != nil {
			return err
		}
		profiles[i] = prof
		if _, err := s.Simulate(ctx, bm, testSeed, testScale, target); err != nil {
			return err
		}
		_, err = s.Predict(ctx, bm, testSeed, testScale, target)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for kind, want := range map[EventKind]int{
		EventBuild: 1, EventProfile: 1, EventSimulate: 1, EventPredict: 1,
	} {
		if got := c.get(kind); got != want {
			t.Errorf("%v ran %d times for %d consumers, want %d", kind, got, consumers, want)
		}
	}
	for i := 1; i < consumers; i++ {
		if profiles[i] != profiles[0] {
			t.Fatal("consumers received different profile instances")
		}
	}

	// A different profiler configuration is a different cache key.
	if _, err := s.ProfileOpts(ctx, bm, testSeed, testScale, profiler.Options{NoCoherence: true}); err != nil {
		t.Fatal(err)
	}
	if got := c.get(EventProfile); got != 2 {
		t.Errorf("ablation profile options should profile again: %d profiles, want 2", got)
	}
	if got := c.get(EventBuild); got != 1 {
		t.Errorf("ablation profile reused the cached program, want 1 build, got %d", got)
	}
}

// TestSimulateSweepSharesRecording: a sweep records the trace exactly once,
// deduplicates against simulations the session already ran, and later
// Simulate calls reuse sweep results instead of simulating again.
func TestSimulateSweepSharesRecording(t *testing.T) {
	c := newCounter()
	s := New(Options{Workers: 8, Progress: c.sink}).NewSession()
	bm := mustBench(t, "kmeans")
	ctx := context.Background()
	space := arch.SweepSpace(16)

	// Prime the cache with one configuration the sweep also contains.
	prior, err := s.Simulate(ctx, bm, testSeed, testScale, space[3])
	if err != nil {
		t.Fatal(err)
	}

	results, err := s.SimulateSweep(ctx, bm, testSeed, testScale, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(space) {
		t.Fatalf("sweep returned %d results for %d configs", len(results), len(space))
	}
	if results[3] != prior {
		t.Error("sweep re-simulated a configuration the session had already simulated")
	}
	if got := c.get(EventRecord); got != 1 {
		t.Errorf("trace recorded %d times, want 1 (once per (bench, seed, scale))", got)
	}
	if got := c.get(EventSimulate); got != len(space) {
		t.Errorf("%d simulations for %d distinct configs, want exactly one each", got, len(space))
	}

	// A second overlapping sweep is fully cached: no new recordings or
	// simulations, and results are the same instances.
	again, err := s.SimulateSweep(ctx, bm, testSeed, testScale, space[:8])
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i] != results[i] {
			t.Fatalf("config %d: second sweep returned a different result instance", i)
		}
	}
	if got := c.get(EventSimulate); got != len(space) {
		t.Errorf("overlapping sweep re-simulated: %d simulate events, want %d", got, len(space))
	}

	// Simulate after the sweep hits the sweep's cache entries.
	solo, err := s.Simulate(ctx, bm, testSeed, testScale, space[7])
	if err != nil {
		t.Fatal(err)
	}
	if solo != results[7] {
		t.Error("Simulate after a sweep did not reuse the sweep's cached result")
	}
}

// TestSweepMatchesPerConfigSimulate: sweep results are bit-identical to
// fresh per-configuration simulations in an unrelated session.
func TestSweepMatchesPerConfigSimulate(t *testing.T) {
	bm := mustBench(t, "swaptions")
	ctx := context.Background()
	space := arch.SweepSpace(6)

	sweep, err := New(Options{Workers: 4}).NewSession().SimulateSweep(ctx, bm, testSeed, testScale, space)
	if err != nil {
		t.Fatal(err)
	}
	serial := New(Options{Workers: 1}).NewSession()
	for i, cfg := range space {
		res, err := serial.Simulate(ctx, bm, testSeed, testScale, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != sweep[i].Cycles || res.Seconds != sweep[i].Seconds {
			t.Errorf("config %s: sweep %v cycles, per-config %v", cfg.Name, sweep[i].Cycles, res.Cycles)
		}
	}
}

// TestParallelMatchesSerial: a parallel engine produces bit-identical
// predictions and simulation results to a serial (Workers: 1) engine.
func TestParallelMatchesSerial(t *testing.T) {
	benches := []string{"kmeans", "nw", "streamcluster", "fluidanimate", "freqmine"}
	space := arch.DesignSpace()
	configs := []arch.Config{space[0], space[2], space[4]}

	type outcome struct {
		predCycles float64
		simCycles  float64
	}
	run := func(workers int) []outcome {
		s := New(Options{Workers: workers}).NewSession()
		out := make([]outcome, len(benches)*len(configs))
		err := s.ForEach(context.Background(), len(out), func(ctx context.Context, i int) error {
			bm, err := workload.ByName(benches[i/len(configs)])
			if err != nil {
				return err
			}
			cfg := configs[i%len(configs)]
			pred, err := s.Predict(ctx, bm, testSeed, testScale, cfg)
			if err != nil {
				return err
			}
			res, err := s.Simulate(ctx, bm, testSeed, testScale, cfg)
			if err != nil {
				return err
			}
			out[i] = outcome{predCycles: pred.Cycles, simCycles: res.Cycles}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("job %d diverged: serial %+v, parallel %+v", i, serial[i], parallel[i])
		}
	}
}

// TestCancellationStopsPendingJobs: canceling the context fails pending
// work with the context error instead of running it.
func TestCancellationStopsPendingJobs(t *testing.T) {
	var started atomic.Int32
	s := New(Options{Workers: 1, Progress: func(Event) { started.Add(1) }}).NewSession()
	target := arch.Base()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before any job runs

	bm := mustBench(t, "nn")
	if _, err := s.Profile(ctx, bm, testSeed, testScale); !errors.Is(err, context.Canceled) {
		t.Fatalf("Profile on canceled context: err = %v, want context.Canceled", err)
	}
	err := s.ForEach(ctx, 8, func(ctx context.Context, i int) error {
		_, err := s.Simulate(ctx, bm, testSeed, testScale, target)
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEach on canceled context: err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("%d jobs ran despite cancellation", n)
	}

	// The session must recover: a live context recomputes the entries the
	// canceled attempt left behind.
	if _, err := s.Profile(context.Background(), bm, testSeed, testScale); err != nil {
		t.Fatalf("session did not recover after cancellation: %v", err)
	}
	if started.Load() == 0 {
		t.Fatal("recovery did not actually profile")
	}
}

// TestWaiterSurvivesOtherCallersCancellation: a duplicate requester with a
// live context must not inherit the computing caller's cancellation — it
// retries and computes the entry itself.
func TestWaiterSurvivesOtherCallersCancellation(t *testing.T) {
	small := mustBench(t, "nn")
	// A benchmark whose build is slow enough that caller A's context is
	// reliably canceled while A is still computing the profile entry.
	slow := workload.Benchmark{
		Name: "slow-build",
		Kind: small.Kind,
		Build: func(seed uint64, scale float64) *workload.Program {
			time.Sleep(300 * time.Millisecond)
			return small.Build(seed, scale)
		},
	}
	s := New(Options{Workers: 2}).NewSession()

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := s.Profile(ctxA, slow, testSeed, testScale)
		errA <- err
	}()
	time.Sleep(50 * time.Millisecond) // A is now computing (inside Build)
	errB := make(chan error, 1)
	go func() {
		_, err := s.Profile(context.Background(), slow, testSeed, testScale)
		errB <- err
	}()
	time.Sleep(50 * time.Millisecond) // B is now waiting on A's entry
	cancelA()

	if err := <-errB; err != nil {
		t.Fatalf("waiter with live context inherited failure: %v", err)
	}
	// A either finished before observing cancellation or failed with it;
	// both are acceptable — only B's success is the contract.
	if err := <-errA; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("caller A failed with a non-context error: %v", err)
	}
}

// TestForEachFirstErrorWins: the lowest-index error is reported and later
// jobs are cancelled rather than left running.
func TestForEachFirstErrorWins(t *testing.T) {
	s := New(Options{Workers: 2}).NewSession()
	sentinel := errors.New("boom")
	const n = 64
	// What became of each job after the failing one: ForEach skips a job
	// that starts after the cancellation, so a later job is either never
	// called, or called and released by the cancellation. Only a job the
	// cancellation never reached runs to the timeout, which is far longer
	// than any scheduling delay.
	const (
		skipped int32 = iota
		cancelled
		timedOut
	)
	var outcome [n]atomic.Int32
	err := s.ForEach(context.Background(), n, func(ctx context.Context, i int) error {
		switch {
		case i == 3:
			return sentinel
		case i > 3:
			select {
			case <-ctx.Done():
				outcome[i].Store(cancelled)
				return ctx.Err()
			case <-time.After(30 * time.Second):
				outcome[i].Store(timedOut)
				return nil
			}
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("ForEach returned %v, want sentinel error", err)
	}
	var counts [3]int
	for i := 4; i < n; i++ {
		o := outcome[i].Load()
		counts[o]++
		if o == timedOut {
			t.Errorf("job %d ran to its timeout: the cancellation never reached it", i)
		}
	}
	t.Logf("later jobs: %d skipped, %d cancelled while running", counts[skipped], counts[cancelled])
}

// TestBadConfigPropagates: an invalid target configuration surfaces the
// validation error through the engine.
func TestBadConfigPropagates(t *testing.T) {
	s := New(Options{}).NewSession()
	bad := arch.Base()
	bad.Cores = 0
	bm := mustBench(t, "nn")
	if _, err := s.Simulate(context.Background(), bm, testSeed, testScale, bad); err == nil {
		t.Fatal("invalid config accepted by Simulate")
	}
	if _, err := s.Predict(context.Background(), bm, testSeed, testScale, bad); err == nil {
		t.Fatal("invalid config accepted by Predict")
	}
}

// TestWorkersDefault: the pool size defaults to GOMAXPROCS and respects an
// explicit override.
func TestWorkersDefault(t *testing.T) {
	if w := New(Options{}).Workers(); w < 1 {
		t.Fatalf("default workers %d", w)
	}
	if w := New(Options{Workers: 3}).Workers(); w != 3 {
		t.Fatalf("explicit workers: got %d, want 3", w)
	}
}
