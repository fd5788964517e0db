package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rppm/internal/arch"
	"rppm/internal/engine"
	"rppm/internal/obs"
	"rppm/internal/stats"
	"rppm/internal/storefs"
	"rppm/internal/workload"
)

// Config configures a Server. The zero value serves with GOMAXPROCS
// workers, an unbounded cache, no persistence and default admission.
type Config struct {
	// Workers bounds concurrent heavy jobs (profiling, simulation,
	// prediction) in the engine pool; 0 = GOMAXPROCS.
	Workers int
	// MaxBytes is the resident-cache memory budget for recorded traces,
	// profiles and results; 0 = unbounded. Entries held by in-flight
	// requests are never evicted.
	MaxBytes int64
	// TraceDir, when non-empty, persists captured artifacts as versioned
	// files and reloads them on later cache misses — including across
	// server restarts: recorded traces (trace.FileVersion, .rpt) and
	// collected profiles (profilefmt.FileVersion, .rpp). A restart serving
	// a previously-seen key reloads the persisted profile instead of
	// re-running the profiling pass.
	TraceDir string
	// StoreFS is the filesystem persistence goes through; nil selects the
	// host filesystem (storefs.OS). Tests and the -chaos flag install a
	// storefs.Fault here to inject disk failures.
	StoreFS storefs.FS
	// Store tunes the artifact store's failure handling (retry budget,
	// backoff, circuit breaker); the zero value selects the defaults
	// documented on StorePolicy.
	Store StorePolicy
	// RequestTimeout bounds each admitted /v1/predict and /v1/sweep
	// request end to end: the deadline is threaded through the engine
	// context, and a request that exceeds it is answered with 504. 0
	// selects DefaultRequestTimeout; negative disables the deadline.
	RequestTimeout time.Duration
	// MaxInflight bounds admitted concurrent /v1/predict and /v1/sweep
	// requests (executing plus queued on the engine pool); excess requests
	// are rejected with 429. 0 selects DefaultMaxInflight.
	MaxInflight int
	// Progress, when non-nil, receives engine events (tests and logging).
	Progress engine.ProgressFunc
	// Log, when non-nil, receives structured operational messages
	// (persistence failures, startup info) and one access-log record per
	// request. Nil discards operational messages and skips access logging
	// entirely, keeping the warm serving path log-free.
	Log *slog.Logger
}

// DefaultMaxInflight is the admission bound when Config.MaxInflight is 0:
// enough to keep a wide pool busy with queued work, small enough that a
// traffic spike degrades into fast 429s instead of an unbounded queue.
const DefaultMaxInflight = 64

// DefaultRequestTimeout is the per-request deadline when
// Config.RequestTimeout is 0: generous for the heaviest admissible sweep,
// tight enough that a wedged request cannot hold its admission slot
// forever.
const DefaultRequestTimeout = 30 * time.Second

// MaxSweepConfigs bounds the design-space size one /v1/sweep request may
// ask for: each point costs a cycle-level simulation, so the parameter
// must not be an amplification lever for a single admitted request.
const MaxSweepConfigs = 256

// endpointMetrics tracks one route's request counters and latencies.
type endpointMetrics struct {
	total   atomic.Uint64
	errors  atomic.Uint64
	latency stats.LatencyHistogram
}

// Server is the resident prediction service. Create with New, expose via
// Handler, and drive the lifecycle with http.Server (see Main for the
// canonical wiring with graceful drain).
type Server struct {
	cfg  Config
	eng  *engine.Engine
	sess *engine.Session
	mux  *http.ServeMux

	// log is always non-nil (a discard handler when Config.Log is nil) so
	// deep layers never nil-check; accessLog gates the per-request record,
	// which only exists when an operator asked for logging.
	log       *slog.Logger
	accessLog bool

	// ring buffers the most recent predict/sweep request traces for
	// /debug/requests; every admitted heavy request is traced into it.
	ring *obs.Ring

	// store is the fault-tolerant persistence layer; nil when TraceDir is
	// unset (memory-only serving).
	store *artifactStore

	admit    chan struct{}
	inflight atomic.Int64
	rejected atomic.Uint64
	panics   atomic.Uint64
	timeouts atomic.Uint64
	started  time.Time

	predictM, sweepM, listM, healthM endpointMetrics

	// stageLat times completed engine stages (indexed by engine.EventKind),
	// fed from the Progress chain into /metrics.
	stageLat [5]stats.LatencyHistogram
}

// New creates a server with a fresh engine and resident session.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	switch {
	case cfg.RequestTimeout == 0:
		cfg.RequestTimeout = DefaultRequestTimeout
	case cfg.RequestTimeout < 0:
		cfg.RequestTimeout = 0 // explicit opt-out: no per-request deadline
	}
	s := &Server{
		cfg:     cfg,
		admit:   make(chan struct{}, cfg.MaxInflight),
		ring:    obs.NewRing(obs.DefaultRingSize),
		started: time.Now(),
	}
	s.log = cfg.Log
	s.accessLog = cfg.Log != nil
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// Chain the caller's progress sink behind the stage-latency
	// histograms, so /metrics observes every completed engine stage
	// whether or not anyone else subscribed.
	progress := cfg.Progress
	s.eng = engine.New(engine.Options{Workers: cfg.Workers, Progress: func(ev engine.Event) {
		if int(ev.Kind) < len(s.stageLat) {
			s.stageLat[ev.Kind].Observe(ev.Duration)
		}
		if progress != nil {
			progress(ev)
		}
	}})
	opts := engine.SessionOptions{MaxBytes: cfg.MaxBytes}
	if cfg.TraceDir != "" {
		s.store = newArtifactStore(cfg.StoreFS, cfg.TraceDir, cfg.Store, s.log)
		s.store.cleanupTemps()
		opts.LoadRecorded = s.store.loadTrace
		opts.StoreRecorded = s.store.storeTrace
		opts.LoadProfile = s.store.loadProfile
		opts.StoreProfile = s.store.storeProfile
	}
	s.sess = s.eng.NewSessionWith(opts)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.instrument("healthz", &s.healthM, false, s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("/debug/cache", s.handleDebugCache)
	s.mux.HandleFunc("/v1/benchmarks", s.instrument("list", &s.listM, false, s.handleBenchmarks))
	s.mux.HandleFunc("/v1/archs", s.instrument("list", &s.listM, false, s.handleArchs))
	s.mux.HandleFunc("/v1/predict", s.admitHeavy("predict", &s.predictM, s.handlePredict))
	s.mux.HandleFunc("/v1/sweep", s.admitHeavy("sweep", &s.sweepM, s.handleSweep))
	return s
}

// Session exposes the resident session (for tests and for embedding the
// server alongside library use of the same cache).
func (s *Server) Session() *engine.Session { return s.sess }

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// --- request plumbing ---------------------------------------------------

type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// writeJSON encodes v with a trailing newline (curl-friendly).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// statusRecorder captures the response code for the error counters and
// whether anything was written, so the panic middleware knows if a 500
// body can still be sent.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// instrument wraps a handler with request counting, latency tracking and
// panic containment: a handler panic is answered with a 500 (when the
// response has not started) and counted, instead of killing the
// connection — the engine's own unwind paths guarantee the panicked
// request released its worker slot and pins, so the server stays
// serviceable.
//
// When traced is set, the request runs under a fresh obs.Trace (carried on
// the request context, so every engine stage and store operation below it
// records a span) which lands in the debug ring on completion. Every
// instrumented request also emits one structured access-log record when a
// logger is configured: route, method, path, status, duration, and — for
// traced routes — the trace ID and the cache outcome.
func (s *Server) instrument(route string, m *endpointMetrics, traced bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var tr *obs.Trace
		if traced {
			tr = obs.New(route)
			r = r.WithContext(obs.WithTrace(r.Context(), tr))
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				s.log.Error("panic serving request",
					"method", r.Method, "path", r.URL.Path, "panic", p,
					"stack", string(debug.Stack()))
				if !rec.wrote {
					writeErr(rec, &httpError{code: http.StatusInternalServerError,
						msg: "internal error (see server log)"})
				} else {
					// Mid-stream panic: the response is already on the
					// wire and cannot be rewritten; count it as an error.
					rec.code = http.StatusInternalServerError
				}
			}
			m.total.Add(1)
			if rec.code >= 400 {
				m.errors.Add(1)
			}
			elapsed := time.Since(start)
			m.latency.Observe(elapsed)
			if tr != nil {
				tr.Finish()
				s.ring.Add(tr)
			}
			if s.accessLog {
				attrs := []any{
					"route", route, "method", r.Method, "path", r.URL.Path,
					"status", rec.code, "dur_ms", float64(elapsed.Microseconds()) / 1000,
				}
				if tr != nil {
					attrs = append(attrs, "trace_id", tr.ID)
					if c := tr.CacheOutcome(); c != "" {
						attrs = append(attrs, "cache", c)
					}
				}
				s.log.Info("request", attrs...)
			}
		}()
		h(rec, r)
	}
}

// admitHeavy is instrument plus bounded admission and the per-request
// deadline: when MaxInflight requests are already admitted, the request is
// rejected immediately with 429 and a Retry-After hint, so overload
// degrades into cheap rejections instead of an unbounded queue (the engine
// pool already bounds the work actually executing; this bounds the line in
// front of it). Admitted requests run under Config.RequestTimeout,
// threaded through the engine context, so one wedged request cannot hold
// its admission slot forever.
func (s *Server) admitHeavy(route string, m *endpointMetrics, h http.HandlerFunc) http.HandlerFunc {
	return s.instrument(route, m, true, func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.admit <- struct{}{}:
			s.inflight.Add(1)
			defer func() {
				s.inflight.Add(-1)
				<-s.admit
			}()
			if s.cfg.RequestTimeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
			h(w, r)
		default:
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, &httpError{code: http.StatusTooManyRequests,
				msg: fmt.Sprintf("server at capacity (%d requests in flight)", cap(s.admit))})
		}
	})
}

// writeReqErr maps a heavy-request failure to its response: a request that
// ran out of its deadline becomes a 504 (and is counted), anything else
// goes through the regular error mapping. A client that hung up gets the
// generic path — the response is unread either way.
func (s *Server) writeReqErr(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == context.DeadlineExceeded {
		s.timeouts.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{
			"error": fmt.Sprintf("request exceeded the %s deadline", s.cfg.RequestTimeout)})
		return
	}
	writeErr(w, err)
}

// decodeRequest fills req from the URL query (GET) or a JSON body (POST
// with application/json), after loading defaults into req.
func decodeRequest(r *http.Request, req any, fromQuery func(get func(string) string) error) error {
	if r.Method == http.MethodPost {
		ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
		if ct == "application/json" {
			dec := json.NewDecoder(r.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(req); err != nil {
				return badRequest("invalid JSON body: %v", err)
			}
			return nil
		}
		return badRequest("POST requires Content-Type: application/json")
	}
	q := r.URL.Query()
	return fromQuery(q.Get)
}

func parseUint(s string, def uint64) (uint64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

func parseFloat(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseFloat(s, 64)
}

func parseBool(s string) bool {
	switch strings.ToLower(s) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// --- endpoints ----------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// persistence reports the artifact store's health without failing the
	// probe: "degraded" means a circuit breaker is open or probing and the
	// replica serves from memory only — still correct, just slower on cold
	// keys — so the answer stays 200 and orchestrators keep routing here.
	persistence := "disabled"
	if s.store != nil {
		persistence = "ok"
		if s.store.degraded() {
			persistence = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
		"benchmarks":     len(workload.Suite()),
		"workers":        s.eng.Workers(),
		"persistence":    persistence,
	})
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListBenchmarks())
}

func (s *Server) handleArchs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, arch.DesignSpace())
}

// parsePredict decodes and validates a predict request.
func parsePredict(r *http.Request) (PredictRequest, workload.Benchmark, arch.Config, error) {
	req := PredictRequest{Config: "base", Seed: 1, Scale: 0.3}
	err := decodeRequest(r, &req, func(get func(string) string) error {
		req.Bench = get("bench")
		if c := get("config"); c != "" {
			req.Config = c
		}
		var err error
		if req.Seed, err = parseUint(get("seed"), req.Seed); err != nil {
			return badRequest("bad seed: %v", err)
		}
		if req.Scale, err = parseFloat(get("scale"), req.Scale); err != nil {
			return badRequest("bad scale: %v", err)
		}
		req.Baselines = parseBool(get("baselines"))
		req.Simulate = parseBool(get("simulate"))
		req.Debug = parseBool(get("debug"))
		return nil
	})
	if err != nil {
		return req, workload.Benchmark{}, arch.Config{}, err
	}
	if req.Bench == "" {
		return req, workload.Benchmark{}, arch.Config{}, badRequest("missing bench parameter (see /v1/benchmarks)")
	}
	if !(req.Scale > 0) || req.Scale > 1 {
		return req, workload.Benchmark{}, arch.Config{}, badRequest("scale must be in (0, 1], got %v", req.Scale)
	}
	bm, err := workload.ResolveBenchmark(req.Bench)
	if err != nil {
		return req, workload.Benchmark{}, arch.Config{}, badRequest("%v", err)
	}
	cfg, err := configByName(req.Config)
	if err != nil {
		return req, workload.Benchmark{}, arch.Config{}, badRequest("%v", err)
	}
	return req, bm, cfg, nil
}

// parseSweep decodes and validates a sweep request.
func parseSweep(r *http.Request) (SweepRequest, workload.Benchmark, error) {
	req := SweepRequest{Configs: 16, Seed: 1, Scale: 0.3}
	err := decodeRequest(r, &req, func(get func(string) string) error {
		req.Bench = get("bench")
		var err error
		if c := get("configs"); c != "" {
			if req.Configs, err = strconv.Atoi(c); err != nil {
				return badRequest("bad configs: %v", err)
			}
		}
		if req.Seed, err = parseUint(get("seed"), req.Seed); err != nil {
			return badRequest("bad seed: %v", err)
		}
		if req.Scale, err = parseFloat(get("scale"), req.Scale); err != nil {
			return badRequest("bad scale: %v", err)
		}
		req.Debug = parseBool(get("debug"))
		return nil
	})
	if err != nil {
		return req, workload.Benchmark{}, err
	}
	switch {
	case req.Bench == "":
		err = badRequest("missing bench parameter (see /v1/benchmarks)")
	case !(req.Scale > 0) || req.Scale > 1:
		err = badRequest("scale must be in (0, 1], got %v", req.Scale)
	case req.Configs < 1:
		err = badRequest("configs must be at least 1, got %d", req.Configs)
	case req.Configs > MaxSweepConfigs:
		// The CLI's -configs is operator-controlled; this is a network
		// surface, and each config is a full cycle-level simulation.
		err = badRequest("configs must be at most %d, got %d", MaxSweepConfigs, req.Configs)
	}
	if err != nil {
		return req, workload.Benchmark{}, err
	}
	bm, err := workload.ResolveBenchmark(req.Bench)
	if err != nil {
		return req, workload.Benchmark{}, badRequest("%v", err)
	}
	return req, bm, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	psp := obs.Start(ctx, "parse")
	req, bm, cfg, err := parsePredict(r)
	psp.End()
	if err != nil {
		writeErr(w, err)
		return
	}
	ectx, esp := obs.StartSpan(ctx, "exec")
	resp, err := BuildPredict(ectx, s.sess, bm, cfg, req)
	esp.End()
	if err != nil {
		s.writeReqErr(w, r, err)
		return
	}
	if req.Debug {
		// Snapshot the span tree before encoding: the payload carries
		// everything recorded so far (parse + exec and every engine stage
		// under it); the encode span that follows lands in the debug ring
		// but cannot appear inside the body it serializes.
		resp.Debug = buildDebugTrace(obs.FromContext(ctx))
	}
	wsp := obs.Start(ctx, "encode")
	writeJSON(w, http.StatusOK, resp)
	wsp.End()
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	psp := obs.Start(ctx, "parse")
	req, bm, err := parseSweep(r)
	psp.End()
	if err != nil {
		writeErr(w, err)
		return
	}
	ectx, esp := obs.StartSpan(ctx, "exec")
	resp, err := BuildSweep(ectx, s.sess, bm, req)
	esp.End()
	if err != nil {
		s.writeReqErr(w, r, err)
		return
	}
	if req.Debug {
		resp.Debug = buildDebugTrace(obs.FromContext(ctx))
	}
	wsp := obs.Start(ctx, "encode")
	writeJSON(w, http.StatusOK, resp)
	wsp.End()
}

// Shutdown-aware serving: ListenAndServe runs the server at addr until ctx
// is canceled, then drains in-flight requests (graceful SIGTERM handling
// when ctx comes from signal.NotifyContext).
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	// A misbehaving client must not hold a connection open indefinitely:
	// headers get a tight bound, bodies (tiny JSON here) a generous one,
	// and writes are bounded by the request deadline plus slack for
	// serializing large sweep responses to a slow reader.
	hs := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	if s.cfg.RequestTimeout > 0 {
		hs.WriteTimeout = s.cfg.RequestTimeout + time.Minute
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.log.Info("draining: waiting for in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	<-errc // http.ErrServerClosed from the serve goroutine
	return nil
}
