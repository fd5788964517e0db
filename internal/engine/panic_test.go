package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"rppm/internal/arch"
	"rppm/internal/profiler"
)

// mustPanic runs f expecting a panic and returns the recovered value.
func mustPanic(t *testing.T, what string, f func()) (recovered any) {
	t.Helper()
	defer func() {
		recovered = recover()
		if recovered == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
	return nil
}

// TestPanicUnwindReleasesEntryAndSlot: a panic inside a cache computation
// (here: a LoadProfile hook with a bug) must propagate to the caller — the
// serving layer's recovery middleware turns it into a 500 — while the
// engine forgets the half-built entry, wakes its waiters with an error
// instead of a hang, releases the worker slot, and unpins the entries the
// unwound request held. The session must then serve the same key normally.
func TestPanicUnwindReleasesEntryAndSlot(t *testing.T) {
	bm := mustBench(t, "kmeans")
	boom := true
	// Workers: 1 makes a leaked slot or pin immediately fatal: any
	// follow-up work would deadlock on the wedged pool.
	eng := New(Options{Workers: 1})
	s := eng.NewSessionWith(SessionOptions{
		MaxBytes: 1, // evict everything unpinned: leaked pins become visible
		LoadProfile: func(context.Context, ProfileKey) (*profiler.Profile, bool) {
			if boom {
				panic("injected hook failure")
			}
			return nil, false
		},
	})
	ctx := context.Background()
	cfg := arch.Base()

	// Concurrent waiter coalescing onto the panicking computation: it must
	// be woken with an error, not hang on the entry forever.
	waiterErr := make(chan error, 1)
	go func() {
		// Give the first caller a head start so this one usually coalesces;
		// either interleaving must end with an error or a success, never a
		// hang (the panic path re-panics only in the computing goroutine).
		defer func() {
			if r := recover(); r != nil {
				waiterErr <- nil // the waiter became the computer: same panic
			}
		}()
		time.Sleep(5 * time.Millisecond)
		_, err := s.Predict(ctx, bm, testSeed, testScale, cfg)
		waiterErr <- err
	}()

	r := mustPanic(t, "Predict with panicking hook", func() {
		_, _ = s.Predict(ctx, bm, testSeed, testScale, cfg)
	})
	if rs, ok := r.(string); !ok || !strings.Contains(rs, "injected hook failure") {
		t.Fatalf("recovered %v, want the injected panic value", r)
	}

	select {
	case err := <-waiterErr:
		// nil (waiter won the race and panicked itself, or recomputed after
		// the forget) and a panic-labelled error are both acceptable; a
		// context error or hang is not.
		if err != nil && !strings.Contains(err.Error(), "panic") {
			t.Fatalf("waiter error = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waiter hung on the panicked entry")
	}

	// The pool has one slot and the cache one byte: if the unwound request
	// leaked its slot or any pin, this fresh end-to-end request deadlocks
	// or trips the evictor. Heal the hook and require full service.
	boom = false
	done := make(chan error, 1)
	go func() {
		_, err := s.Predict(ctx, bm, testSeed, testScale, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Predict after panic recovery: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("engine wedged after panic unwind (leaked slot or pin)")
	}

	// Nothing may stay pinned: with MaxBytes 1 every completed entry is
	// evictable, so resident bytes must drain to zero.
	st := s.Stats()
	if st.BytesResident != 0 || st.Entries != 0 {
		t.Fatalf("entries leaked after unwind: %d entries, %d bytes resident",
			st.Entries, st.BytesResident)
	}
}

// TestForEachPanicPropagatesToCaller: a panic inside a fan-out job must
// re-surface on the caller's goroutine (recoverable by its middleware),
// not crash the process from an anonymous goroutine.
func TestForEachPanicPropagatesToCaller(t *testing.T) {
	s := New(Options{Workers: 4}).NewSession()
	r := mustPanic(t, "ForEach with panicking job", func() {
		_ = s.ForEach(context.Background(), 8, func(ctx context.Context, i int) error {
			if i == 3 {
				panic("job bug")
			}
			return nil
		})
	})
	if rs, ok := r.(string); !ok || rs != "job bug" {
		t.Fatalf("recovered %v, want the job's panic value", r)
	}
}

// TestBatchPanicWakesClaims: a panic inside the config-batched simulation
// pass must forget every claimed cache slot and wake coalesced waiters
// with an error rather than leaving them blocked. Panics are injected via
// a progress sink, which EventSimulate calls from inside the batch pass.
func TestBatchPanicWakesClaims(t *testing.T) {
	boom := true
	sink := func(ev Event) {
		if boom && ev.Kind == EventSimulate {
			panic("sink bug")
		}
	}
	eng := New(Options{Workers: 1, Progress: sink})
	s := eng.NewSession()
	bm := mustBench(t, "kmeans")
	cfgs := arch.SweepSpace(4)

	mustPanic(t, "batched sweep with panicking sink", func() {
		_, _ = sweepWidth(context.Background(), s, bm, cfgs, 4)
	})

	// Every claimed slot must have been forgotten: the same sweep, healed,
	// must compute all four configurations from scratch without hanging.
	boom = false
	done := make(chan error, 1)
	go func() {
		res, err := sweepWidth(context.Background(), s, bm, cfgs, 4)
		if err == nil {
			for i, r := range res {
				if r == nil {
					t.Errorf("config %d missing after recovery", i)
				}
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sweep after panic recovery: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sweep hung after batch panic (claimed entries not forgotten)")
	}
}
