package server

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"rppm/internal/engine"
	"rppm/internal/stats"
)

// handleMetrics renders the Prometheus text exposition format: engine
// cache counters (hits, misses, coalesced requests, evictions, resident
// bytes), admission state, and per-endpoint request totals and latency
// histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	st := s.sess.Stats()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("rppm_cache_hits_total", "Completed-entry cache hits.", st.Hits)
	counter("rppm_cache_misses_total", "Computations started (cache misses).", st.Misses)
	counter("rppm_cache_coalesced_total", "Requests coalesced onto an in-flight computation.", st.Coalesced)
	counter("rppm_cache_evictions_total", "Entries evicted under the memory budget.", st.Evictions)
	counter("rppm_trace_loads_total", "Recordings reloaded from the trace dir instead of captured.", st.TraceLoads)
	counter("rppm_profile_runs_total", "Profiling passes executed (the expensive cold path).", st.Profiles.Runs)
	counter("rppm_profile_loads_total", "Profiles reloaded from the trace dir instead of profiled.", st.Profiles.Loads)
	counter("rppm_profile_hits_total", "Profile requests served by a resident or in-flight cache entry.", st.Profiles.Hits)
	gauge("rppm_cache_bytes_resident", "Accounted bytes of resident cache entries.", st.BytesResident)
	gauge("rppm_cache_entries", "Live cache entries, including in-flight ones.", int64(st.Entries))
	gauge("rppm_cache_bytes_budget", "Configured cache memory budget (0 = unbounded).", s.cfg.MaxBytes)
	gauge("rppm_inflight_requests", "Admitted heavy requests currently in flight.", s.inflight.Load())
	gauge("rppm_inflight_limit", "Admission bound on concurrent heavy requests.", int64(cap(s.admit)))
	counter("rppm_rejected_total", "Requests rejected with 429 at the admission bound.", s.rejected.Load())
	counter("rppm_panics_total", "Handler panics contained by the recovery middleware.", s.panics.Load())
	counter("rppm_request_timeouts_total", "Requests answered with 504 at the per-request deadline.", s.timeouts.Load())
	gauge("rppm_engine_workers", "Engine worker-pool size.", int64(s.eng.Workers()))
	gauge("rppm_uptime_seconds", "Seconds since server start.", int64(uptimeSeconds(s)))

	// Per-stage latency histograms: how long each completed engine stage
	// (non-cached work only — cache hits never reach the pool) actually
	// ran, plus the artifact store's load/save operation times.
	fmt.Fprintf(&b, "# HELP rppm_stage_seconds Completed engine-stage execution time, per stage.\n# TYPE rppm_stage_seconds histogram\n")
	for kind := engine.EventBuild; int(kind) < len(s.stageLat); kind++ {
		writeHist(&b, "rppm_stage_seconds", "stage", kind.String(), &s.stageLat[kind])
	}
	if a := s.store; a != nil {
		writeHist(&b, "rppm_stage_seconds", "stage", "store-load", &a.loadLat)
		writeHist(&b, "rppm_stage_seconds", "stage", "store-save", &a.saveLat)
	}

	// Trace ring: how many requests were traced and how many are resident
	// for /debug/requests.
	counter("rppm_traces_recorded_total", "Heavy requests traced into the debug ring.", s.ring.Total())
	gauge("rppm_trace_ring_entries", "Traces resident in the debug ring.", int64(s.ring.Len()))
	gauge("rppm_trace_ring_capacity", "Debug ring capacity.", int64(s.ring.Cap()))

	// Go runtime health: goroutine count, heap occupancy and GC activity.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("go_goroutines", "Live goroutines.", int64(runtime.NumGoroutine()))
	gauge("go_memstats_heap_alloc_bytes", "Heap bytes allocated and in use.", int64(ms.HeapAlloc))
	gauge("go_memstats_heap_sys_bytes", "Heap bytes obtained from the OS.", int64(ms.HeapSys))
	gauge("go_memstats_next_gc_bytes", "Heap size target of the next GC cycle.", int64(ms.NextGC))
	counter("go_gc_cycles_total", "Completed GC cycles.", uint64(ms.NumGC))

	if a := s.store; a != nil {
		counter("rppm_store_retries_total", "Transient artifact-store I/O errors retried with backoff.", a.retries.Load())
		counter("rppm_store_quarantined_total", "Artifacts quarantined (renamed *.corrupt) after failing validation.", a.quarantines.Load())
		counter("rppm_store_breaker_trips_total", "Times a store circuit breaker tripped open.",
			a.loadBr.trips.Load()+a.storeBr.trips.Load())
		fmt.Fprintf(&b, "# HELP rppm_store_breaker_state Store breaker per direction: 0=closed 1=half-open 2=open.\n# TYPE rppm_store_breaker_state gauge\n")
		fmt.Fprintf(&b, "rppm_store_breaker_state{direction=\"load\"} %d\n", a.loadBr.state())
		fmt.Fprintf(&b, "rppm_store_breaker_state{direction=\"store\"} %d\n", a.storeBr.state())
		fmt.Fprintf(&b, "# HELP rppm_store_failures_total Store operations that exhausted their retry budget, per direction.\n# TYPE rppm_store_failures_total counter\n")
		fmt.Fprintf(&b, "rppm_store_failures_total{direction=\"load\"} %d\n", a.loadFails.Load())
		fmt.Fprintf(&b, "rppm_store_failures_total{direction=\"store\"} %d\n", a.storeFails.Load())
		fmt.Fprintf(&b, "# HELP rppm_store_skipped_total Store operations skipped while a breaker was open, per direction.\n# TYPE rppm_store_skipped_total counter\n")
		fmt.Fprintf(&b, "rppm_store_skipped_total{direction=\"load\"} %d\n", a.loadBr.skipped.Load())
		fmt.Fprintf(&b, "rppm_store_skipped_total{direction=\"store\"} %d\n", a.storeBr.skipped.Load())
	}

	fmt.Fprintf(&b, "# HELP rppm_requests_total Requests served per endpoint.\n# TYPE rppm_requests_total counter\n")
	fmt.Fprintf(&b, "# HELP rppm_request_errors_total Requests answered with a 4xx/5xx per endpoint.\n# TYPE rppm_request_errors_total counter\n")
	for _, e := range []struct {
		name string
		m    *endpointMetrics
	}{
		{"predict", &s.predictM},
		{"sweep", &s.sweepM},
		{"list", &s.listM},
		{"healthz", &s.healthM},
	} {
		fmt.Fprintf(&b, "rppm_requests_total{endpoint=%q} %d\n", e.name, e.m.total.Load())
		fmt.Fprintf(&b, "rppm_request_errors_total{endpoint=%q} %d\n", e.name, e.m.errors.Load())
	}

	fmt.Fprintf(&b, "# HELP rppm_request_seconds Request latency per endpoint.\n# TYPE rppm_request_seconds histogram\n")
	for _, e := range []struct {
		name string
		m    *endpointMetrics
	}{
		{"predict", &s.predictM},
		{"sweep", &s.sweepM},
		{"list", &s.listM},
		{"healthz", &s.healthM},
	} {
		writeLatency(&b, e.name, &e.m.latency)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(b.String()))
}

func uptimeSeconds(s *Server) float64 {
	return time.Since(s.started).Seconds()
}

func writeLatency(b *strings.Builder, endpoint string, h *stats.LatencyHistogram) {
	writeHist(b, "rppm_request_seconds", "endpoint", endpoint, h)
}

// writeHist renders one labeled histogram series (bucket/sum/count) in the
// text exposition format.
func writeHist(b *strings.Builder, name, label, value string, h *stats.LatencyHistogram) {
	h.Snapshot(func(upper float64, cum uint64) {
		if upper < 0 {
			fmt.Fprintf(b, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, cum)
			return
		}
		fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n", name, label, value, trimFloat(upper), cum)
	})
	fmt.Fprintf(b, "%s_sum{%s=%q} %g\n", name, label, value, h.Sum().Seconds())
	fmt.Fprintf(b, "%s_count{%s=%q} %d\n", name, label, value, h.Count())
}

// trimFloat renders a bucket bound compactly (Prometheus accepts any
// float text).
func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
