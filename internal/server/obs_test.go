package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}

// TestDebugSpanTree: ?debug=1 adds a span tree whose stage durations
// account for (nearly) all of the request's wall time, with cache
// outcomes per stage — and leaves the rest of the body untouched.
func TestDebugSpanTree(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	base := strings.TrimSuffix(c.BaseURL, "/")

	plain := getBody(t, base+"/v1/predict?bench=hotspot&scale=0.05")
	if bytes.Contains(plain, []byte(`"debug"`)) {
		t.Fatalf("non-debug response contains a debug field: %s", plain)
	}

	var resp struct {
		Cycles float64     `json:"cycles"`
		Debug  *DebugTrace `json:"debug"`
	}
	cold := getBody(t, base+"/v1/predict?bench=nn&scale=0.05&debug=1")
	if err := json.Unmarshal(cold, &resp); err != nil {
		t.Fatalf("debug response: %v", err)
	}
	if resp.Debug == nil {
		t.Fatal("debug=1 response has no debug payload")
	}
	d := resp.Debug
	if len(d.TraceID) != 16 {
		t.Fatalf("trace_id = %q, want 16 hex chars", d.TraceID)
	}
	if d.Name != "predict" {
		t.Fatalf("debug name = %q, want predict", d.Name)
	}
	var sum int64
	var stages []string
	for _, sp := range d.Spans {
		sum += sp.DurUS
		stages = append(stages, sp.Name)
	}
	if d.TotalUS <= 0 {
		t.Fatalf("total_us = %d, want positive", d.TotalUS)
	}
	if sum < d.TotalUS*90/100 {
		t.Fatalf("top-level spans sum to %dµs of %dµs total (<90%%): stages %v",
			sum, d.TotalUS, stages)
	}
	// The cold request computed: some stage under exec must record a miss.
	if !strings.Contains(string(cold), `"cache":"miss"`) {
		t.Fatalf("cold debug trace has no cache miss annotation: %s", cold)
	}

	// A repeat of the same request is served from cache and says so.
	warm := getBody(t, base+"/v1/predict?bench=nn&scale=0.05&debug=1")
	if !strings.Contains(string(warm), `"cache":"hit"`) {
		t.Fatalf("warm debug trace has no cache hit annotation: %s", warm)
	}
	if strings.Contains(string(warm), `"cache":"miss"`) {
		t.Fatalf("warm debug trace recorded a miss: %s", warm)
	}

	// Sweep gets the same treatment.
	var sresp struct {
		Debug *DebugTrace `json:"debug"`
	}
	sweep := getBody(t, base+"/v1/sweep?bench=nn&configs=2&scale=0.05&debug=1")
	if err := json.Unmarshal(sweep, &sresp); err != nil || sresp.Debug == nil {
		t.Fatalf("sweep debug payload missing (err=%v)", err)
	}
	if sresp.Debug.Name != "sweep" {
		t.Fatalf("sweep debug name = %q", sresp.Debug.Name)
	}
}

// TestDebugRequestsEndpoint: traced requests land in the ring, and
// /debug/requests exports them as valid trace_event JSON.
func TestDebugRequestsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	base := strings.TrimSuffix(c.BaseURL, "/")
	getBody(t, base+"/v1/predict?bench=hotspot&scale=0.05")
	getBody(t, base+"/v1/predict?bench=hotspot&scale=0.05")

	raw := getBody(t, base+"/debug/requests")
	var doc struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			TID   int               `json:"tid"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("/debug/requests is not valid JSON: %v", err)
	}
	var meta, complete int
	ids := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
		case "X":
			complete++
			if id := ev.Args["trace_id"]; id != "" {
				ids[id] = true
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
	}
	if meta < 2 {
		t.Fatalf("got %d metadata events, want >= 2 (one per traced request)", meta)
	}
	if len(ids) < 2 {
		t.Fatalf("got %d distinct trace IDs, want >= 2", len(ids))
	}
	// Healthz is not traced: the ring holds heavy requests only.
	getBody(t, base+"/healthz")
	raw2 := getBody(t, base+"/debug/requests")
	if bytes.Contains(raw2, []byte("healthz")) {
		t.Fatal("untraced route leaked into the debug ring")
	}
}

// TestDebugCacheEndpoint: /debug/cache inventories the resident session
// entries from Session.Snapshot.
func TestDebugCacheEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	base := strings.TrimSuffix(c.BaseURL, "/")
	getBody(t, base+"/v1/predict?bench=hotspot&scale=0.05")

	var inv struct {
		Count   int `json:"count"`
		Entries []struct {
			Kind  string `json:"kind"`
			Bench string `json:"bench"`
			Bytes int64  `json:"bytes"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(getBody(t, base+"/debug/cache"), &inv); err != nil {
		t.Fatalf("/debug/cache: %v", err)
	}
	if inv.Count == 0 || len(inv.Entries) != inv.Count {
		t.Fatalf("count=%d entries=%d", inv.Count, len(inv.Entries))
	}
	kinds := map[string]bool{}
	for _, e := range inv.Entries {
		kinds[e.Kind] = true
		if e.Bench != "hotspot" {
			t.Fatalf("unexpected bench %q in cache inventory", e.Bench)
		}
	}
	for _, want := range []string{"program", "trace", "profile", "prediction"} {
		if !kinds[want] {
			t.Fatalf("cache inventory kinds %v missing %q", kinds, want)
		}
	}
}

// TestAccessLog: with a logger configured, every request emits one
// structured record carrying route, status, duration, and — for traced
// routes — the trace ID and cache outcome.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, c := newTestServer(t, Config{Workers: 2, Log: logger})
	base := strings.TrimSuffix(c.BaseURL, "/")
	getBody(t, base+"/v1/predict?bench=hotspot&scale=0.05")
	getBody(t, base+"/healthz")

	var predictLine, healthLine map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %q: %v", line, err)
		}
		if rec["msg"] != "request" {
			continue
		}
		switch rec["route"] {
		case "predict":
			predictLine = rec
		case "healthz":
			healthLine = rec
		}
	}
	if predictLine == nil || healthLine == nil {
		t.Fatalf("missing access-log records: predict=%v healthz=%v\n%s",
			predictLine, healthLine, buf.String())
	}
	if predictLine["status"] != float64(200) {
		t.Fatalf("predict status = %v", predictLine["status"])
	}
	id, _ := predictLine["trace_id"].(string)
	if len(id) != 16 {
		t.Fatalf("predict trace_id = %v, want 16 hex chars", predictLine["trace_id"])
	}
	if predictLine["cache"] != "miss" {
		t.Fatalf("cold predict cache outcome = %v, want miss", predictLine["cache"])
	}
	if _, ok := predictLine["dur_ms"].(float64); !ok {
		t.Fatalf("predict dur_ms = %v", predictLine["dur_ms"])
	}
	if _, ok := healthLine["trace_id"]; ok {
		t.Fatal("untraced healthz record carries a trace_id")
	}
}

// TestOpsHandler: the sidecar handler answers metrics, health, debug and
// pprof without touching the public mux.
func TestOpsHandler(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2})
	base := strings.TrimSuffix(c.BaseURL, "/")
	getBody(t, base+"/v1/predict?bench=hotspot&scale=0.05")

	ops := srv.OpsHandler()
	for _, path := range []string{"/metrics", "/healthz", "/debug/requests", "/debug/cache", "/debug/pprof/heap"} {
		req := httptest.NewRequest(http.MethodGet, "http://ops"+path, nil)
		rec := httptest.NewRecorder()
		ops.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ops %s: %d: %.200s", path, rec.Code, rec.Body.String())
		}
		if rec.Body.Len() == 0 {
			t.Fatalf("ops %s: empty body", path)
		}
	}
	// The public mux must not expose pprof.
	resp, err := http.Get(base + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable on the public listener")
	}
}
