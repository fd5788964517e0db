package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/engine"
	"rppm/internal/workload"
)

// eventCounter is a concurrency-safe engine progress sink.
type eventCounter struct {
	mu     sync.Mutex
	counts map[engine.EventKind]int
}

func newEventCounter() *eventCounter {
	return &eventCounter{counts: make(map[engine.EventKind]int)}
}

func (c *eventCounter) sink(ev engine.Event) {
	c.mu.Lock()
	c.counts[ev.Kind]++
	c.mu.Unlock()
}

func (c *eventCounter) get(k engine.EventKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[k]
}

// newTestServer starts an httptest server and returns it with a client.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL)
}

func TestLightEndpoints(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	benches, err := c.Benchmarks(ctx)
	if err != nil {
		t.Fatalf("benchmarks: %v", err)
	}
	// The fixed suite plus the registry's family-instantiated entries.
	wantBenches := len(workload.Suite()) + len(workload.Families())
	if len(benches) != wantBenches {
		t.Errorf("listed %d benchmarks, want %d", len(benches), wantBenches)
	}
	fams := 0
	for _, b := range benches {
		if b.Family != "" {
			if b.Suite != "synthetic" {
				t.Errorf("family entry %s has suite %q, want synthetic", b.Name, b.Suite)
			}
			fams++
		}
	}
	if fams != len(workload.Families()) {
		t.Errorf("listed %d family entries, want %d", fams, len(workload.Families()))
	}
	archs, err := c.Archs(ctx)
	if err != nil {
		t.Fatalf("archs: %v", err)
	}
	if len(archs) != len(arch.DesignSpace()) {
		t.Errorf("listed %d archs, want %d", len(archs), len(arch.DesignSpace()))
	}
	for _, a := range archs {
		if err := a.Validate(); err != nil {
			t.Errorf("served config %s does not validate: %v", a.Name, err)
		}
	}

	// /metrics renders and contains the cache counters.
	rr := httptest.NewRecorder()
	srv.handleMetrics(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"rppm_cache_hits_total", "rppm_cache_misses_total", "rppm_cache_bytes_resident",
		"rppm_inflight_requests", "rppm_request_seconds_bucket{endpoint=\"predict\",le=\"+Inf\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestPredictMatchesLibrary: a served prediction must carry exactly the
// floats the library produces — same cycles, baselines and simulator
// reference — since JSON float encoding round-trips bit-exactly.
func TestPredictMatchesLibrary(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	req := PredictRequest{Bench: "swaptions", Config: "base", Seed: 1, Scale: 0.05,
		Baselines: true, Simulate: true}

	got, err := c.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	s := engine.New(engine.Options{Workers: 2}).NewSession()
	bm, err := workload.ByName(req.Bench)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildPredict(ctx, s, bm, arch.Base(), req)
	if err != nil {
		t.Fatal(err)
	}

	if got.Cycles != want.Cycles || got.Seconds != want.Seconds ||
		got.Instructions != want.Instructions {
		t.Errorf("served prediction diverged: %+v vs %+v", got, want)
	}
	if *got.MainCycles != *want.MainCycles || *got.CritCycles != *want.CritCycles {
		t.Errorf("served baselines diverged: %v/%v vs %v/%v",
			*got.MainCycles, *got.CritCycles, *want.MainCycles, *want.CritCycles)
	}
	if *got.SimCycles != *want.SimCycles {
		t.Errorf("served simulation diverged: %v vs %v", *got.SimCycles, *want.SimCycles)
	}
	if len(got.Threads) != len(want.Threads) {
		t.Fatalf("served %d threads, want %d", len(got.Threads), len(want.Threads))
	}
	for i := range want.Threads {
		if got.Threads[i] != want.Threads[i] {
			t.Errorf("thread %d diverged: %+v vs %+v", i, got.Threads[i], want.Threads[i])
		}
	}
}

// TestConcurrentPredictCoalesces hammers /v1/predict with overlapping
// keys from many clients: the profile work must run exactly once per
// distinct key (request coalescing), and every response body for a key
// must be byte-identical.
func TestConcurrentPredictCoalesces(t *testing.T) {
	ev := newEventCounter()
	srv := New(Config{Workers: 4, Progress: ev.sink})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	keys := []string{"swaptions", "kmeans"}
	const clientsPerKey = 8
	bodies := make([][]string, len(keys))
	for i := range bodies {
		bodies[i] = make([]string, clientsPerKey)
	}
	var wg sync.WaitGroup
	for k := range keys {
		for j := 0; j < clientsPerKey; j++ {
			wg.Add(1)
			go func(k, j int) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/v1/predict?bench=" + keys[k] + "&scale=0.02&seed=1")
				if err != nil {
					t.Errorf("predict %s: %v", keys[k], err)
					return
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("predict %s: status %d, err %v", keys[k], resp.StatusCode, err)
					return
				}
				bodies[k][j] = string(b)
			}(k, j)
		}
	}
	wg.Wait()

	if n := ev.get(engine.EventProfile); n != len(keys) {
		t.Errorf("profile ran %d times for %d distinct keys, want exactly once each", n, len(keys))
	}
	if n := ev.get(engine.EventRecord); n != len(keys) {
		t.Errorf("trace captured %d times for %d distinct keys", n, len(keys))
	}
	for k := range keys {
		for j := 1; j < clientsPerKey; j++ {
			if bodies[k][j] != bodies[k][0] {
				t.Errorf("%s: response %d differs from response 0:\n%s\nvs\n%s",
					keys[k], j, bodies[k][j], bodies[k][0])
			}
		}
	}
	st := srv.Session().Stats()
	if st.Coalesced+st.Hits == 0 {
		t.Error("no requests coalesced or served from cache")
	}
}

// TestAdmissionBackpressure: with every admission slot held, a heavy
// request is rejected with 429 + Retry-After; light endpoints keep
// working; freeing a slot restores service.
func TestAdmissionBackpressure(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, MaxInflight: 2})
	ctx := context.Background()

	srv.admit <- struct{}{}
	srv.admit <- struct{}{} // queue full

	resp, err := http.Get(c.BaseURL + "/v1/predict?bench=swaptions&scale=0.02")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with full queue, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After hint")
	}
	if err := c.Healthz(ctx); err != nil {
		t.Errorf("healthz gated by admission: %v", err)
	}
	if srv.rejected.Load() == 0 {
		t.Error("rejection not counted")
	}

	<-srv.admit
	if _, err := c.Predict(ctx, PredictRequest{Bench: "swaptions", Scale: 0.02, Seed: 1}); err != nil {
		t.Errorf("predict after freeing a slot: %v", err)
	}
	<-srv.admit
}

// TestTraceDirPersistence: a second server over the same trace dir
// reloads the recording instead of re-capturing, with identical results.
func TestTraceDirPersistence(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := PredictRequest{Bench: "swaptions", Config: "base", Seed: 1, Scale: 0.05, Simulate: true}

	ev1 := newEventCounter()
	_, c1 := newTestServer(t, Config{Workers: 2, TraceDir: dir, Progress: ev1.sink})
	want, err := c1.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if n := ev1.get(engine.EventRecord); n != 1 {
		t.Fatalf("first server captured %d traces, want 1", n)
	}

	ev2 := newEventCounter()
	srv2, c2 := newTestServer(t, Config{Workers: 2, TraceDir: dir, Progress: ev2.sink})
	got, err := c2.Predict(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if n := ev2.get(engine.EventRecord); n != 0 {
		t.Errorf("restarted server re-captured %d traces despite persisted file", n)
	}
	if st := srv2.Session().Stats(); st.TraceLoads != 1 {
		t.Errorf("restarted server reloaded %d traces, want 1", st.TraceLoads)
	}
	if got.Cycles != want.Cycles || *got.SimCycles != *want.SimCycles {
		t.Errorf("prediction from reloaded trace diverged: %v/%v vs %v/%v",
			got.Cycles, *got.SimCycles, want.Cycles, *want.SimCycles)
	}
}

// TestProfilePersistenceAcrossRestart is the tentpole's serving-layer
// acceptance test: a restarted server over the same trace dir answers a
// previously-seen predict request byte-for-byte identically without running
// the profiler at all — the persisted profile (format v2) alone serves it.
func TestProfilePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const query = "/v1/predict?bench=swaptions&scale=0.05&seed=1&baselines=1"

	getBytes := func(t *testing.T, base string) []byte {
		t.Helper()
		resp, err := http.Get(base + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return body
	}

	ev1 := newEventCounter()
	srv1 := New(Config{Workers: 2, TraceDir: dir, Progress: ev1.sink})
	ts1 := httptest.NewServer(srv1.Handler())
	want := getBytes(t, ts1.URL)
	ts1.Close()
	if n := ev1.get(engine.EventProfile); n != 1 {
		t.Fatalf("first server profiled %d times, want 1", n)
	}
	if st := srv1.Session().Stats(); st.Profiles.Runs != 1 {
		t.Fatalf("first server profile stats: %+v", st.Profiles)
	}

	ev2 := newEventCounter()
	srv2 := New(Config{Workers: 2, TraceDir: dir, Progress: ev2.sink})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	got := getBytes(t, ts2.URL)

	if !bytes.Equal(got, want) {
		t.Errorf("restarted server served different bytes:\n got  %s\n want %s", got, want)
	}
	if n := ev2.get(engine.EventProfile); n != 0 {
		t.Errorf("restarted server ran the profiler %d times, want 0", n)
	}
	// The profile alone drives the prediction: the recorded trace is not
	// even reloaded, let alone re-captured.
	if n := ev2.get(engine.EventRecord); n != 0 {
		t.Errorf("restarted server re-captured %d traces", n)
	}
	st := srv2.Session().Stats()
	if st.Profiles.Runs != 0 || st.Profiles.Loads != 1 {
		t.Errorf("restarted server profile stats: %+v", st.Profiles)
	}
	// The baselines ride in the one prediction: a baselines=1 request
	// caches a single prediction entry, and its one profile lookup is the
	// load above, so no profile hit follows.
	preds := 0
	for _, e := range srv2.Session().Snapshot() {
		if e.Kind == "prediction" {
			preds++
		}
	}
	if preds != 1 {
		t.Errorf("baselines=1 request cached %d prediction entries, want 1", preds)
	}

	// The /metrics surface the smoke test asserts on.
	rr := httptest.NewRecorder()
	srv2.handleMetrics(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"rppm_profile_runs_total 0",
		"rppm_profile_loads_total 1",
		"rppm_profile_hits_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestProfileReloadRejectsMismatch: a profile file whose contents do not
// match the key it is named for is ignored, not served.
func TestProfileReloadRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := PredictRequest{Bench: "swaptions", Config: "base", Seed: 1, Scale: 0.05}

	_, c1 := newTestServer(t, Config{Workers: 2, TraceDir: dir})
	if _, err := c1.Predict(ctx, req); err != nil {
		t.Fatal(err)
	}

	// Rename the spilled profile onto another benchmark's key: the loader
	// trusts file contents over filename, detects the name mismatch and
	// falls back to profiling.
	src := ProfileSpillPath(dir, engine.ProfileKey{Key: engine.Key{Bench: "swaptions", Seed: 1, Scale: 0.05}})
	dst := ProfileSpillPath(dir, engine.ProfileKey{Key: engine.Key{Bench: "kmeans", Seed: 1, Scale: 0.05}})
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}

	ev := newEventCounter()
	srv2, c2 := newTestServer(t, Config{Workers: 2, TraceDir: dir, Progress: ev.sink})
	req.Bench = "kmeans"
	if _, err := c2.Predict(ctx, req); err != nil {
		t.Fatal(err)
	}
	if n := ev.get(engine.EventProfile); n != 1 {
		t.Errorf("mismatched profile file served: %d profiler runs, want 1", n)
	}
	if st := srv2.Session().Stats(); st.Profiles.Loads != 0 {
		t.Errorf("mismatched profile counted as load: %+v", st.Profiles)
	}
}

// TestSweepMatchesLibrary: the served sweep equals Session.SimulateSweep.
func TestSweepMatchesLibrary(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	got, err := c.Sweep(ctx, SweepRequest{Bench: "kmeans", Configs: 6, Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 6 {
		t.Fatalf("sweep returned %d points, want 6", len(got.Points))
	}

	s := engine.New(engine.Options{Workers: 2}).NewSession()
	bm, err := workload.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildSweep(ctx, s, bm, SweepRequest{Bench: "kmeans", Configs: 6, Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Errorf("point %d diverged:\n served  %+v\n library %+v", i, got.Points[i], want.Points[i])
		}
	}
	if got.Fastest != want.Fastest {
		t.Errorf("fastest = %s, want %s", got.Fastest, want.Fastest)
	}
}

// TestBadRequests: malformed parameters are 400s with a JSON error, never
// 500s or hangs.
func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	cases := []string{
		"/v1/predict",                              // missing bench
		"/v1/predict?bench=nosuch",                 // unknown bench
		"/v1/predict?bench=kmeans&config=nosuch",   // unknown config
		"/v1/predict?bench=kmeans&scale=0",         // zero scale
		"/v1/predict?bench=kmeans&scale=2",         // over-unity scale
		"/v1/predict?bench=kmeans&scale=bogus",     // unparsable
		"/v1/predict?bench=kmeans&seed=-1",         // negative seed
		"/v1/sweep?bench=kmeans&configs=0",         // no configs
		"/v1/sweep?bench=kmeans&configs=100000000", // past the server-side cap
		"/v1/sweep", // missing bench
		"/v1/sweep?bench=kmeans&scale=-0.5&seed=za", // multiple problems
	}
	for _, path := range cases {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", path, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "error") {
			t.Errorf("%s: body lacks error field: %s", path, body)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "1024": 1024, "4KiB": 4096, "256MiB": 256 << 20,
		"1GiB": 1 << 30, "2g": 2 << 30, "16m": 16 << 20, " 8k ": 8 << 10,
		"512kb": 512 << 10,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-1", "x", "1.5GiB", "tenMiB", "10000000000g"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}

// TestClientDefaults: zero-valued Scale/Config in a client request get the
// server defaults instead of a 400 (they are simply omitted on the wire).
func TestClientDefaults(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	resp, err := c.Predict(context.Background(), PredictRequest{Bench: "swaptions", Scale: 0.02})
	if err != nil {
		t.Fatalf("predict with default config: %v", err)
	}
	if resp.Config != "base" {
		t.Errorf("default config = %s, want base", resp.Config)
	}
	// Scale omitted entirely → the server's 0.3 default. Use a cheap check
	// that the server accepted it rather than rejecting scale=0.
	if _, err := c.Sweep(context.Background(), SweepRequest{Bench: "swaptions", Configs: 1, Scale: 0.02}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
}
