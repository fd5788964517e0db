package engine

// Session-level tests for config-batched sweeps: the batch width is a
// scheduling choice only, so every width must produce bit-identical results
// and identical cache/event accounting.

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/sim"
	"rppm/internal/trace"
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
// per-configuration simulations, with exactly one simulation per config,
// and leave identical cache contents and accounting: the same misses,
// hits, coalesced waits, resident bytes and entries at every width.
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

	var firstStats Stats
	var firstSnap []CacheEntryInfo
	for w, batch := range []int{0, 1, 3, 8} {
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
		st, snap := s.Stats(), s.Snapshot()
		if st.Entries != len(space)+1 || st.Misses != uint64(len(space)+1) {
			t.Errorf("batch %d: %d entries, %d misses; want the trace and one per config", batch, st.Entries, st.Misses)
		}
		if w == 0 {
			firstStats, firstSnap = st, snap
			continue
		}
		if st != firstStats {
			t.Errorf("batch %d: cache accounting %+v, want %+v as at the automatic width", batch, st, firstStats)
		}
		if !reflect.DeepEqual(snap, firstSnap) {
			t.Errorf("batch %d: cache contents differ from the automatic width's", batch)
		}
	}
}

// TestSweepBatchCancelledForgetsClaims: a batch whose context is already
// cancelled claims its configurations and then fails to get a pool slot.
// It must forget every claim rather than cache the cancellation, so the
// session is left as it was and a later live sweep simulates each
// configuration exactly once.
func TestSweepBatchCancelledForgetsClaims(t *testing.T) {
	bm := mustBench(t, "kmeans")
	ctx := context.Background()
	space := arch.SweepSpace(4)
	c := newCounter()
	s := New(Options{Workers: 2, Progress: c.sink}).NewSession()
	rec, err := s.Recorded(ctx, bm, testSeed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	out := make([]*sim.Result, len(space))
	err = s.simulateBatch(cancelled, bm, testSeed, testScale, space, out,
		func() trace.Program { return rec })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch on a cancelled context: err = %v, want context.Canceled", err)
	}
	st := s.Stats()
	if st.Misses != before.Misses+uint64(len(space)) {
		t.Errorf("misses %d, want %d: the batch should have claimed every config", st.Misses, before.Misses+uint64(len(space)))
	}
	if st.Entries != before.Entries || st.BytesResident != before.BytesResident {
		t.Errorf("cancelled batch left %d entries, %d bytes; want %d, %d as before it",
			st.Entries, st.BytesResident, before.Entries, before.BytesResident)
	}
	if n := c.get(EventSimulate); n != 0 {
		t.Errorf("cancelled batch emitted %d simulate events", n)
	}

	got, err := sweepWidth(ctx, s, bm, space, len(space))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		if res == nil {
			t.Fatalf("config %d missing after the cancelled batch", i)
		}
	}
	if n := c.get(EventSimulate); n != len(space) {
		t.Errorf("live sweep after the cancelled batch: %d simulate events for %d configs, want one each", n, len(space))
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
