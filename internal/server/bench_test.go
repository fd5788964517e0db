package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchGet issues one request and fails the benchmark on a non-200.
func benchGet(b *testing.B, url string) {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || n == 0 {
		b.Fatalf("status %d, %d body bytes", resp.StatusCode, n)
	}
}

// BenchmarkServePredictWarm measures the steady-state serving rate: the
// session already holds the profile and prediction, so each request is a
// cache hit plus JSON encoding — the p50 a loaded replica sustains.
func BenchmarkServePredictWarm(b *testing.B) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/predict?bench=swaptions&scale=0.05&seed=1"
	benchGet(b, url) // prime the cache outside the timer

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, url)
	}
	b.StopTimer()
	if st := srv.Session().Stats(); st.Misses > 4 {
		b.Fatalf("warm benchmark missed the cache %d times", st.Misses)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServePredictCold measures the first-request cost: every
// iteration runs against a fresh server, paying record+profile+predict.
// The warm/cold ratio is the value of keeping the service resident.
func BenchmarkServePredictCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv := New(Config{Workers: 2})
		ts := httptest.NewServer(srv.Handler())
		b.StartTimer()
		benchGet(b, ts.URL+"/v1/predict?bench=swaptions&scale=0.05&seed=1")
		b.StopTimer()
		ts.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServePredictColdPersisted measures the restart cold path the
// profile persistence exists for: every iteration runs against a fresh
// server over a pre-populated trace dir, so the first request reloads the
// profile from disk instead of paying record+profile. The gap to
// BenchmarkServePredictCold is the amortized profiling pass; the target is
// sub-millisecond service.
func BenchmarkServePredictColdPersisted(b *testing.B) {
	dir := b.TempDir()
	warm := New(Config{Workers: 2, TraceDir: dir})
	ts := httptest.NewServer(warm.Handler())
	benchGet(b, ts.URL+"/v1/predict?bench=swaptions&scale=0.05&seed=1")
	ts.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv := New(Config{Workers: 2, TraceDir: dir})
		ts := httptest.NewServer(srv.Handler())
		b.StartTimer()
		benchGet(b, ts.URL+"/v1/predict?bench=swaptions&scale=0.05&seed=1")
		b.StopTimer()
		if st := srv.Session().Stats(); st.Profiles.Runs != 0 {
			b.Fatalf("cold-persisted request ran the profiler %d times", st.Profiles.Runs)
		}
		ts.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeSweepWarm serves a cached 8-point sweep.
func BenchmarkServeSweepWarm(b *testing.B) {
	srv := New(Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/sweep?bench=kmeans&configs=8&scale=0.05&seed=1"
	benchGet(b, url)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, url)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
