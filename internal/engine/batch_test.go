package engine

// Session-level tests for config-batched sweeps: the batch width is a
// scheduling choice only, so every width must produce bit-identical results
// and identical cache/event accounting.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/sim"
	"rppm/internal/workload"
)

// sweepWidth runs a simulation-only sweep of bm at the test seed and scale
// with batch configurations per pool job (0 = automatic width).
func sweepWidth(ctx context.Context, s *Session, bm workload.Benchmark, cfgs []arch.Config, batch int) ([]*sim.Result, error) {
	sims, _, err := s.sweep(ctx, bm, testSeed, testScale, cfgs, false, batch)
	return sims, err
}

// TestSweepBatchWidthsBitIdentical: sweeps at several explicit batch
// widths (and the automatic width) return results bit-identical to fresh
// per-configuration simulations, with exactly one simulation per config.
func TestSweepBatchWidthsBitIdentical(t *testing.T) {
	bm := mustBench(t, "kmeans")
	ctx := context.Background()
	space := arch.SweepSpace(10)

	serial := New(Options{Workers: 1}).NewSession()
	want := make([]*sim.Result, len(space))
	for i, cfg := range space {
		res, err := serial.Simulate(ctx, bm, testSeed, testScale, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, batch := range []int{0, 1, 3, 8} {
		c := newCounter()
		s := New(Options{Workers: 4, Progress: c.sink}).NewSession()
		got, err := sweepWidth(ctx, s, bm, space, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for i := range space {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("batch %d config %d: batched sweep result differs from serial Simulate", batch, i)
			}
		}
		if n := c.get(EventSimulate); n != len(space) {
			t.Errorf("batch %d: %d simulate events for %d configs, want one each", batch, n, len(space))
		}
	}
}

// TestSweepBatchConcurrent drives overlapping batched sweeps through one
// session from many goroutines (the CI race job runs this under -race):
// every caller must see the same result instances, and each distinct
// configuration must still simulate exactly once.
func TestSweepBatchConcurrent(t *testing.T) {
	bm := mustBench(t, "kmeans")
	ctx := context.Background()
	space := arch.SweepSpace(8)
	c := newCounter()
	s := New(Options{Workers: 4, Progress: c.sink}).NewSession()

	const callers = 6
	results := make([][]*sim.Result, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Overlapping windows with varying widths: plenty of claim
			// races and coalesced waits.
			lo := g % 3
			res, err := sweepWidth(ctx, s, bm, space[lo:], g%4)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res
		}(g)
	}
	wg.Wait()
	for g := 0; g < callers; g++ {
		lo := g % 3
		for i, res := range results[g] {
			if res == nil {
				t.Fatalf("caller %d: nil result %d", g, i)
			}
			if results[0] != nil && res != results[0][lo+i] {
				t.Fatalf("caller %d config %d: different result instance than caller 0", g, lo+i)
			}
		}
	}
	if n := c.get(EventSimulate); n != len(space) {
		t.Errorf("%d simulate events for %d distinct configs, want one each", n, len(space))
	}
}

// TestSweepBatchInvalidConfigDoesNotPoison: an invalid configuration fails
// the sweep but must not cache failures onto the valid configurations
// batched with it.
func TestSweepBatchInvalidConfigDoesNotPoison(t *testing.T) {
	bm := mustBench(t, "kmeans")
	ctx := context.Background()
	space := arch.SweepSpace(3)
	bad := space[1]
	bad.ROBSize = 0
	s := New(Options{Workers: 1}).NewSession()
	if _, err := sweepWidth(ctx, s, bm,
		[]arch.Config{space[0], bad, space[2]}, 3); err == nil {
		t.Fatal("sweep with invalid config succeeded")
	}
	// The valid batchmates must have real cached results, not the batch's
	// failure.
	for _, cfg := range []arch.Config{space[0], space[2]} {
		if _, err := s.Simulate(ctx, bm, testSeed, testScale, cfg); err != nil {
			t.Fatalf("valid config %s poisoned by batched failure: %v", cfg.Name, err)
		}
	}
}
