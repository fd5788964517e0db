package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/profilefmt"
	"rppm/internal/profiler"
)

// profileStore is a serialized in-memory stand-in for the serving layer's
// profile spill directory: profiles round-trip through the on-disk format,
// so a load exercises exactly what a restarted server would.
type profileStore struct {
	mu    sync.Mutex
	files map[ProfileKey][]byte
}

func newProfileStore() *profileStore {
	return &profileStore{files: make(map[ProfileKey][]byte)}
}

func (ps *profileStore) store(t *testing.T) func(context.Context, ProfileKey, *profiler.Profile) {
	return func(_ context.Context, k ProfileKey, p *profiler.Profile) {
		data, err := profilefmt.Encode(p, k.Opts)
		if err != nil {
			t.Errorf("StoreProfile encode: %v", err)
			return
		}
		ps.mu.Lock()
		ps.files[k] = data
		ps.mu.Unlock()
	}
}

func (ps *profileStore) load(t *testing.T) func(context.Context, ProfileKey) (*profiler.Profile, bool) {
	return func(_ context.Context, k ProfileKey) (*profiler.Profile, bool) {
		ps.mu.Lock()
		data, ok := ps.files[k]
		ps.mu.Unlock()
		if !ok {
			return nil, false
		}
		p, _, err := profilefmt.Decode(data)
		if err != nil {
			t.Errorf("LoadProfile decode: %v", err)
			return nil, false
		}
		return p, true
	}
}

// TestProfilePersistenceHooks is the tentpole's acceptance test at the
// engine layer: a session wired to a profile store serves a prediction for
// a previously-profiled key with ZERO profiler runs, and the prediction is
// bit-identical to the freshly-profiled one.
func TestProfilePersistenceHooks(t *testing.T) {
	bm := mustBench(t, "kmeans")
	ctx := context.Background()
	target := arch.Base()
	store := newProfileStore()

	c1 := newCounter()
	s1 := New(Options{Workers: 2, Progress: c1.sink}).NewSessionWith(SessionOptions{
		StoreProfile: store.store(t),
	})
	want, err := s1.Predict(ctx, bm, testSeed, testScale, target)
	if err != nil {
		t.Fatal(err)
	}
	if n := c1.get(EventProfile); n != 1 {
		t.Fatalf("first session profiled %d times, want 1", n)
	}
	if st := s1.Stats(); st.Profiles.Runs != 1 || st.Profiles.Loads != 0 {
		t.Fatalf("first session profile stats: %+v", st.Profiles)
	}
	if len(store.files) != 1 {
		t.Fatalf("StoreProfile saw %d profiles, want 1", len(store.files))
	}

	// A fresh session (a restarted server, a cold replica) with the load
	// hook: the profiler must not run at all.
	c2 := newCounter()
	s2 := New(Options{Workers: 2, Progress: c2.sink}).NewSessionWith(SessionOptions{
		LoadProfile: store.load(t),
	})
	got, err := s2.Predict(ctx, bm, testSeed, testScale, target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prediction from persisted profile diverged:\n got %+v\nwant %+v", got, want)
	}
	if n := c2.get(EventProfile); n != 0 {
		t.Errorf("profiler ran %d times despite persisted profile", n)
	}
	if n := c2.get(EventRecord); n != 0 {
		t.Errorf("trace captured %d times despite persisted profile", n)
	}
	st := s2.Stats()
	if st.Profiles.Runs != 0 {
		t.Errorf("Profiles.Runs = %d, want 0", st.Profiles.Runs)
	}
	if st.Profiles.Loads != 1 {
		t.Errorf("Profiles.Loads = %d, want 1", st.Profiles.Loads)
	}

	// Warm repeat: a resident hit, no further load.
	if _, err := s2.Predict(ctx, bm, testSeed, testScale, target); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Profile(ctx, bm, testSeed, testScale); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Profiles.Loads != 1 || st.Profiles.Hits == 0 {
		t.Errorf("warm repeat profile stats: %+v", st.Profiles)
	}
}

// TestEvictedProfileReloads: under a budget nothing fits in, the profile
// is evicted as soon as its request releases it, and the next request for
// it is a plain miss served by LoadProfile — no second profiling pass, and
// a prediction identical to the first.
func TestEvictedProfileReloads(t *testing.T) {
	bm := mustBench(t, "kmeans")
	ctx := context.Background()
	target := arch.Base()
	store := newProfileStore()

	c := newCounter()
	s := New(Options{Workers: 2, Progress: c.sink}).NewSessionWith(SessionOptions{
		MaxBytes:     1, // everything over budget: maximal pressure
		LoadProfile:  store.load(t),
		StoreProfile: store.store(t),
	})
	want, err := s.Predict(ctx, bm, testSeed, testScale, target)
	if err != nil {
		t.Fatal(err)
	}
	pk := ProfileKey{Key{bm.Name, testSeed, testScale}, s.eng.opts.Profiler}
	if has(s, pk) {
		t.Fatal("profile still resident under a 1-byte budget")
	}
	before := s.Stats().Profiles
	if before.Runs != 1 || before.Loads != 0 {
		t.Fatalf("first request profile stats: %+v", before)
	}

	got, err := s.Predict(ctx, bm, testSeed, testScale, target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prediction from reloaded profile diverged:\n got %+v\nwant %+v", got, want)
	}
	after := s.Stats().Profiles
	if after.Loads != before.Loads+1 || after.Runs != before.Runs {
		t.Errorf("evicted profile not reloaded: before %+v, after %+v", before, after)
	}
	if n := c.get(EventProfile); n != 1 {
		t.Errorf("EventProfile emitted %d times, want 1", n)
	}
}

// TestEvictedProfileWithoutHooksReprofiles: with no persistence hooks
// wired, an evicted profile is collected again — correct, just slower.
func TestEvictedProfileWithoutHooksReprofiles(t *testing.T) {
	bm := mustBench(t, "kmeans")
	ctx := context.Background()
	target := arch.Base()

	c := newCounter()
	s := New(Options{Workers: 2, Progress: c.sink}).NewSessionWith(SessionOptions{MaxBytes: 1})
	want, err := s.Predict(ctx, bm, testSeed, testScale, target)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Predict(ctx, bm, testSeed, testScale, target)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("prediction from re-collected profile diverged")
	}
	if st := s.Stats().Profiles; st.Runs != 2 || st.Loads != 0 || st.Hits != 0 {
		t.Errorf("hookless re-profile stats: %+v", st)
	}
	if n := c.get(EventProfile); n != 2 {
		t.Errorf("EventProfile emitted %d times, want 2", n)
	}
}

// TestPinnedProfileSurvivesEviction: a profile an in-flight request holds
// stays resident under any pressure, and a concurrent request for it is a
// hit on the same value. Once released it is evicted like any other entry.
func TestPinnedProfileSurvivesEviction(t *testing.T) {
	bm := mustBench(t, "kmeans")
	ctx := context.Background()

	s := New(Options{Workers: 2}).NewSessionWith(SessionOptions{MaxBytes: 1})
	opts := s.eng.opts.Profiler
	held, unpin, err := s.profilePinned(ctx, bm, testSeed, testScale, opts)
	if err != nil {
		t.Fatal(err)
	}
	pk := ProfileKey{Key{bm.Name, testSeed, testScale}, opts}
	for _, key := range []string{"x", "y", "z"} {
		s.release(put(t, s, key, 1<<20))
		if !has(s, pk) {
			t.Fatalf("pinned profile evicted after inserting %q", key)
		}
	}
	p, err := s.Profile(ctx, bm, testSeed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if p != held {
		t.Error("request during the pin did not get the resident profile")
	}
	if st := s.Stats().Profiles; st.Runs != 1 || st.Hits != 1 {
		t.Errorf("profile stats while pinned: %+v", st)
	}

	unpin()
	if has(s, pk) {
		t.Error("released profile not evicted under a 1-byte budget")
	}
}
