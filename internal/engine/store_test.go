package engine

import (
	"context"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/trace"
)

// fakeSized is a stub cache value with an explicit accounted size.
type fakeSized int64

func (f fakeSized) SizeBytes() int64 { return int64(f) }

// put inserts a fake entry of the given size and returns it pinned.
func put(t *testing.T, s *Session, key string, size int64) *entry {
	t.Helper()
	en, err := s.get(context.Background(), key, func(context.Context) (any, error) {
		return fakeSized(size), nil
	})
	if err != nil {
		t.Fatalf("get(%s): %v", key, err)
	}
	return en
}

func has(s *Session, key any) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// TestBudgetEvictsLRU: unpinned entries are evicted oldest-first once the
// resident bytes exceed MaxBytes, and the accounting matches.
func TestBudgetEvictsLRU(t *testing.T) {
	const budget = 3000
	s := New(Options{Workers: 1}).NewSessionWith(SessionOptions{MaxBytes: budget})

	for _, key := range []string{"a", "b", "c"} {
		s.release(put(t, s, key, 800))
	}
	if st := s.Stats(); st.BytesResident > budget || st.Evictions != 0 {
		t.Fatalf("under-budget state wrong: %+v", st)
	}
	// A fourth 800-byte entry (plus overhead) overflows: "a" is the LRU
	// victim. Touch "b" first so the recency order is b > a.
	s.release(put(t, s, "b", 800)) // hit: must not re-add bytes
	s.release(put(t, s, "d", 800))
	st := s.Stats()
	if st.BytesResident > budget {
		t.Errorf("resident %d exceeds budget %d", st.BytesResident, budget)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	if has(s, "a") {
		t.Error("LRU entry a not evicted")
	}
	if !has(s, "b") || !has(s, "c") && !has(s, "d") {
		t.Errorf("recently used entries evicted: b=%v c=%v d=%v",
			has(s, "b"), has(s, "c"), has(s, "d"))
	}
	if st.Hits != 1 || st.Misses != 4 {
		t.Errorf("hits/misses = %d/%d, want 1/4", st.Hits, st.Misses)
	}
}

// TestEvictionNeverTakesPinnedEntry: an entry an in-flight request holds
// must survive arbitrary cache pressure; it becomes evictable only once
// the last pin is released.
func TestEvictionNeverTakesPinnedEntry(t *testing.T) {
	s := New(Options{Workers: 1}).NewSessionWith(SessionOptions{MaxBytes: 2000})

	pinned := put(t, s, "held", 1500) // stays pinned: simulates an in-flight request
	for i, key := range []string{"x", "y", "z"} {
		s.release(put(t, s, key, 1500))
		if !has(s, "held") {
			t.Fatalf("pinned entry evicted after %d thrash rounds", i+1)
		}
	}
	// The thrash entries individually overflow the budget next to the
	// pinned resident: each must have been evicted on release.
	if has(s, "x") || has(s, "y") || has(s, "z") {
		t.Errorf("thrash entries survived: x=%v y=%v z=%v", has(s, "x"), has(s, "y"), has(s, "z"))
	}
	st := s.Stats()
	if st.BytesResident < 1500 {
		t.Errorf("pinned bytes not accounted: %d", st.BytesResident)
	}
	// Dropping the pin makes it an ordinary LRU citizen: the next insertion
	// evicts it.
	s.release(pinned)
	s.release(put(t, s, "w", 1500))
	if has(s, "held") {
		t.Error("released entry not evicted under pressure")
	}
}

// TestSweepUnderTinyBudget: a sweep whose recordings and results exceed the
// budget still captures the trace exactly once (the sweep holds the pin
// across the fan-out), stays bit-identical to an unbounded session, and
// lands within budget once the sweep completes.
func TestSweepUnderTinyBudget(t *testing.T) {
	bm := mustBench(t, "kmeans")
	cfgs := arch.SweepSpace(4)
	ctx := context.Background()

	want, err := New(Options{Workers: 2}).NewSession().SimulateSweep(ctx, bm, testSeed, 0.02, cfgs)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 8 << 10 // far below one recorded trace
	c := newCounter()
	s := New(Options{Workers: 2, Progress: c.sink}).NewSessionWith(SessionOptions{MaxBytes: budget})
	got, err := s.SimulateSweep(ctx, bm, testSeed, 0.02, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Cycles != want[i].Cycles || got[i].Seconds != want[i].Seconds {
			t.Errorf("config %s: budgeted sweep diverged: %v cycles vs %v",
				cfgs[i].Name, got[i].Cycles, want[i].Cycles)
		}
	}
	if n := c.get(EventRecord); n != 1 {
		t.Errorf("trace captured %d times under budget pressure, want exactly 1", n)
	}
	if st := s.Stats(); st.BytesResident > budget {
		t.Errorf("resident %d exceeds budget %d after sweep", st.BytesResident, budget)
	} else if st.Evictions == 0 {
		t.Error("sweep under tiny budget recorded no evictions")
	}
}

// TestEvictedEntryRecomputes: after eviction, the next request is a miss
// that recomputes the same value.
func TestEvictedEntryRecomputes(t *testing.T) {
	bm := mustBench(t, "swaptions")
	ctx := context.Background()
	c := newCounter()
	s := New(Options{Workers: 1, Progress: c.sink}).NewSessionWith(SessionOptions{MaxBytes: 1 << 10})

	rec1, err := s.Recorded(ctx, bm, testSeed, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// The trace exceeds the budget, so once unpinned it was evicted.
	rec2, err := s.Recorded(ctx, bm, testSeed, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.get(EventRecord); n != 2 {
		t.Errorf("expected re-capture after eviction, got %d records", n)
	}
	if rec1.Instructions() != rec2.Instructions() || rec1.Words() != rec2.Words() {
		t.Error("re-captured recording differs from the original")
	}
}

// TestTracePersistenceHooks: StoreRecorded receives captures, LoadRecorded
// short-circuits the capture pass, and loaded traces drive bit-identical
// simulation results.
func TestTracePersistenceHooks(t *testing.T) {
	bm := mustBench(t, "swaptions")
	ctx := context.Background()
	target := arch.Base()

	saved := make(map[Key]*trace.Recorded)
	c1 := newCounter()
	s1 := New(Options{Workers: 2, Progress: c1.sink}).NewSessionWith(SessionOptions{
		StoreRecorded: func(_ context.Context, k Key, rec *trace.Recorded) { saved[k] = rec },
	})
	want, err := s1.Simulate(ctx, bm, testSeed, testScale, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 1 {
		t.Fatalf("StoreRecorded saw %d captures, want 1", len(saved))
	}

	c2 := newCounter()
	s2 := New(Options{Workers: 2, Progress: c2.sink}).NewSessionWith(SessionOptions{
		LoadRecorded: func(_ context.Context, k Key) (*trace.Recorded, bool) { rec, ok := saved[k]; return rec, ok },
	})
	got, err := s2.Simulate(ctx, bm, testSeed, testScale, target)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles {
		t.Errorf("simulation from loaded trace diverged: %v vs %v cycles", got.Cycles, want.Cycles)
	}
	if n := c2.get(EventRecord); n != 0 {
		t.Errorf("capture ran %d times despite LoadRecorded hit", n)
	}
	if st := s2.Stats(); st.TraceLoads != 1 {
		t.Errorf("TraceLoads = %d, want 1", st.TraceLoads)
	}
}
