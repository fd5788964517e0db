package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rppm/internal/arch"
	"rppm/internal/engine"
	"rppm/internal/obs"
	"rppm/internal/prng"
	"rppm/internal/server"
	"rppm/internal/storefs"
	"rppm/internal/trace"
)

// The serve workload's key space: (entry, seed) workload keys times the
// five Table IV configs. The repository has no record of rppm-serve
// traffic, so the request mix is an assumption, not a measurement; each
// parameter below names where it comes from.
//
// The entries are Rodinia programs at the golden scale, chosen for a
// steady measurement, not because clients ask for them: over seeds 1-8
// their profiles are all 3.8-4.7 MB and a fresh cold request (record +
// profile + persist) takes 2-8 ms, so the cache holds about the same
// number of keys whichever keys a seed makes popular. Parsec is left out
// because its profiles range from 0.6 MB (freqmine) to 234-261 MB
// (bodytrack, fluidanimate): one of those alone exceeds the budget, and
// which entries the zipf head lands on would decide the hit ratio. The
// synthetic families are left out because at their registry scale a
// fresh cold costs 80-130 ms, 10-20 times a Rodinia one, so one popular
// family key would move the tail on its own. (Sizes and times measured
// on a 2-vCPU x86-64 VM.)
var serveEntries = []string{"kmeans", "hotspot", "srad", "backprop", "lavaMD", "heartwall"}

const (
	serveSeedsPerEntry = 8
	// serveTheta is YCSB's default zipfian constant (Cooper et al.,
	// "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010).
	serveTheta = 0.99
	// serveSweepShare follows YCSB core workload B, read-mostly at 95%
	// reads and 5% updates, with the heavier request, a sweep, in the
	// updates' place. No /debug share: a ?debug=1 body carries timings,
	// so it cannot be checked byte for byte, and debug traffic is left to
	// an open-loop load scenario.
	serveSweepShare   = 0.05
	serveSweepConfigs = 4
	// serveMaxBytes holds about 70% of the working set's profiles, so the
	// zipf tail keeps evicting and reloading while the head stays warm.
	// The share is a choice that forces budget pressure, not a measured
	// deployment.
	serveMaxBytes = 148 << 20
	serveSampleN  = 64 // one response body in serveSampleN is checked
	reqHeader     = "X-Perfbench-Req"
	serveShutdown = 10 * time.Second
)

// wkey is one workload key of the serve key space.
type wkey struct {
	entry int
	seed  uint64
}

type serveState struct {
	entries []benchEntry
	tableIV []arch.Config
	wkeys   []wkey
	gen     *keyGen

	srv     *server.Server
	fs      *timedFS
	http    *http.Server
	baseURL string
	served  chan error

	events  eventRecorder
	flights *inflight
}

// serveSetup persists a seeded quarter of each entry's workload keys
// through a first server instance, then starts the measured server over
// the same trace dir on a loopback listener. It stands for a replica
// restarted after serving part of the key space; the quarter is a
// choice that gives every path (warm, reload, fresh cold) work, not a
// measured restart.
func serveSetup(opts options, dir string) (*serveState, error) {
	entries, err := resolveEntries(serveEntries, goldenScale)
	if err != nil {
		return nil, err
	}
	st := &serveState{entries: entries, tableIV: arch.DesignSpace(), flights: newInflight()}
	for e := range entries {
		for j := 0; j < serveSeedsPerEntry; j++ {
			st.wkeys = append(st.wkeys, wkey{e, opts.seed + uint64(j)})
		}
	}
	st.gen = newKeyGen(opts.seed, len(st.wkeys)*len(st.tableIV), serveTheta, serveSweepShare)

	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pre := server.New(server.Config{Workers: opts.workers, TraceDir: dir})
	// A seeded quarter of each entry's seeds: every run leaves the same
	// number of fresh colds per entry.
	src := prng.New(opts.seed ^ 0x70726566)
	perm := make([]int, serveSeedsPerEntry)
	for i := range entries {
		src.Perm(perm)
		for _, j := range perm[:serveSeedsPerEntry/4] {
			k := st.wkeys[i*serveSeedsPerEntry+j]
			e := entries[k.entry]
			req := server.PredictRequest{Bench: e.name, Config: st.tableIV[0].Name, Seed: k.seed, Scale: e.scale}
			if _, err := server.BuildPredict(context.Background(), pre.Session(), e.bm, st.tableIV[0], req); err != nil {
				return nil, fmt.Errorf("prefill %s seed %d: %w", e.name, k.seed, err)
			}
		}
	}

	st.fs = newTimedFS(storefs.OS, st.observeStore)
	st.srv = server.New(server.Config{
		Workers:  opts.workers,
		MaxBytes: serveMaxBytes,
		TraceDir: dir,
		StoreFS:  st.fs,
		Progress: st.observeEvent,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.baseURL = "http://" + ln.Addr().String()
	st.http = &http.Server{Handler: &timedHandler{inner: st.srv.Handler(), st: st}}
	st.served = make(chan error, 1)
	go func() { st.served <- st.http.Serve(ln) }()
	return st, nil
}

// stop shuts the measured server down and waits for it to exit.
func (st *serveState) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), serveShutdown)
	defer cancel()
	err := st.http.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// --- per-request bookkeeping ---------------------------------------------

// serveOp is one request as the client and the handler wrapper see it.
type serveOp struct {
	key     string // workload key, "<bench>_<seed>"
	ctx     context.Context
	handler atomic.Int64 // handler duration, ns
	bytes   atomic.Int64 // response bytes written
	track   *hookTrack   // set by the handler wrapper in a traced run
}

// inflight maps request IDs to their ops, and workload keys to the
// traced ops currently inside the handler, which engine events and store
// transfers for that key are attributed to.
type inflight struct {
	ops   sync.Map // request ID -> *serveOp
	mu    sync.Mutex
	byKey map[string][]*serveOp
}

func newInflight() *inflight { return &inflight{byKey: map[string][]*serveOp{}} }

func (f *inflight) enter(op *serveOp) {
	f.mu.Lock()
	f.byKey[op.key] = append(f.byKey[op.key], op)
	f.mu.Unlock()
}

func (f *inflight) leave(op *serveOp) {
	f.mu.Lock()
	ops := f.byKey[op.key]
	for i, o := range ops {
		if o == op {
			ops = append(ops[:i], ops[i+1:]...)
			break
		}
	}
	if len(ops) == 0 {
		delete(f.byKey, op.key)
	} else {
		f.byKey[op.key] = ops
	}
	f.mu.Unlock()
}

// track returns the hook track of the earliest traced request in flight
// for key, or nil.
func (f *inflight) track(key string) *hookTrack {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, op := range f.byKey[key] {
		if op.track != nil {
			return op.track
		}
	}
	return nil
}

// timedHandler wraps the server's handler: it times each request on the
// server side, counts response bytes, and in a traced run opens the
// request's server.handler span.
type timedHandler struct {
	inner http.Handler
	st    *serveState
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v, ok := h.st.flights.ops.Load(r.Header.Get(reqHeader))
	if !ok {
		h.inner.ServeHTTP(w, r)
		return
	}
	op := v.(*serveOp)
	cw := &countingWriter{ResponseWriter: w}
	var sp *obs.Span
	if op.ctx != nil {
		var hctx context.Context
		hctx, sp = obs.StartSpan(op.ctx, "server.handler")
		op.track = newHookTrack(hctx, sp)
		h.st.flights.enter(op)
	}
	t := time.Now()
	h.inner.ServeHTTP(cw, r)
	d := time.Since(t)
	if sp != nil {
		h.st.flights.leave(op)
		sp.End()
	}
	op.handler.Store(int64(d))
	op.bytes.Store(cw.n)
}

// eventRecorder keeps the measured server's engine events.
type eventRecorder struct {
	mu     sync.Mutex
	events []engine.Event
}

func (st *serveState) observeEvent(ev engine.Event) {
	st.events.mu.Lock()
	st.events.events = append(st.events.events, ev)
	st.events.mu.Unlock()
	if t := st.flights.track(fmt.Sprintf("%s_%d", ev.Bench, ev.Seed)); t != nil {
		t.place("engine."+ev.Kind.String(), ev.Duration)
	}
}

// observeStore attributes a store transfer to the request in flight for
// the artifact's workload key; artifact names start "<bench>_<seed>_".
func (st *serveState) observeStore(op storeOp) {
	parts := strings.SplitN(filepath.Base(op.path), "_", 3)
	if len(parts) < 3 {
		return
	}
	name := "storefs.read"
	if op.write {
		name = "storefs.write"
	}
	if t := st.flights.track(parts[0] + "_" + parts[1]); t != nil {
		t.place(name, op.dur)
	}
}

// --- the closed loop -------------------------------------------------------

type serveSample struct {
	sweep bool
	wk    wkey
	cfg   int
	body  []byte
}

// serveAcc accumulates one measurement phase of serve.
type serveAcc struct {
	mu        sync.Mutex
	wall      time.Duration
	requests  int
	ok        int
	points    int
	rejected  int
	bad       int
	badNotes  []string
	predict   []float64 // ms, 2xx predict round trips
	predictAt []time.Duration
	handler   []float64 // ms
	client    []float64 // ms, round trip minus handler
	respBytes []float64
	sweepBody map[wkey][]byte
	start     time.Time
	done      []completion // 2xx replies
	samples   []serveSample
	allocs    uint64
}

// completion is one 2xx reply: when it arrived and how many design
// points it answered.
type completion struct {
	at     time.Duration
	points int
}

// rateBlocks is how many consecutive blocks of replies the rates are
// taken over.
const rateBlocks = 15

// rates returns requests and points per second as medians over
// rateBlocks consecutive blocks of replies, each block's count over the
// time it took, so a transient stall on a shared host moves one block,
// not the figure.
func (acc *serveAcc) rates() (req, points float64) {
	n := len(acc.done)
	if n < 2*rateBlocks {
		secs := acc.wall.Seconds()
		return float64(n) / secs, float64(acc.points) / secs
	}
	size := n / rateBlocks
	reqs := make([]float64, 0, rateBlocks)
	pts := make([]float64, 0, rateBlocks)
	var prev time.Duration
	for b := 0; b < rateBlocks; b++ {
		lo, hi := b*size, (b+1)*size
		if b == rateBlocks-1 {
			hi = n
		}
		p := 0
		for _, c := range acc.done[lo:hi] {
			p += c.points
		}
		secs := (acc.done[hi-1].at - prev).Seconds()
		prev = acc.done[hi-1].at
		reqs = append(reqs, float64(hi-lo)/secs)
		pts = append(pts, float64(p)/secs)
	}
	return median(reqs), median(pts)
}

// serveTailWindow is the span of run time whose predictions form one
// group for the tail percentile: long enough for a p99 with ten samples
// beyond it at the rates this workload reaches.
const serveTailWindow = 2 * time.Second

// tailWindows groups the predict round trips by serveTailWindow.
func (acc *serveAcc) tailWindows() [][]float64 {
	n := max(int(acc.wall/serveTailWindow), 1)
	groups := make([][]float64, n)
	for i, at := range acc.predictAt {
		g := min(int(at/serveTailWindow), n-1)
		groups[g] = append(groups[g], acc.predict[i])
	}
	return groups
}

// request returns request i's URL and what it asks for.
func (st *serveState) request(i uint64) (string, serveSample) {
	key, sweep := st.gen.at(i)
	wk := st.wkeys[key/len(st.tableIV)]
	cfg := key % len(st.tableIV)
	e := st.entries[wk.entry]
	q := url.Values{}
	q.Set("bench", e.name)
	q.Set("seed", strconv.FormatUint(wk.seed, 10))
	q.Set("scale", strconv.FormatFloat(e.scale, 'g', -1, 64))
	path := "/v1/predict"
	if sweep {
		path = "/v1/sweep"
		q.Set("configs", strconv.Itoa(serveSweepConfigs))
	} else {
		q.Set("config", st.tableIV[cfg].Name)
	}
	return st.baseURL + path + "?" + q.Encode(), serveSample{sweep: sweep, wk: wk, cfg: cfg}
}

// serveMeasure runs opts.workers closed-loop clients for the run length:
// each client sends its next request only when the previous reply has
// been read, as rppm.Client callers do.
func serveMeasure(st *serveState, opts options, traced *ledger) (*serveAcc, error) {
	acc := &serveAcc{sweepBody: map[wkey][]byte{}}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: opts.workers}}
	defer client.CloseIdleConnections()
	var next atomic.Uint64
	deadline := time.Now().Add(opts.seconds)
	m0 := mallocs()
	start := time.Now()
	acc.start = start
	var wg sync.WaitGroup
	errc := make(chan error, opts.workers)
	for c := 0; c < opts.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := serveOne(st, client, next.Add(1)-1, traced, acc); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	acc.wall = time.Since(start)
	acc.allocs = mallocs() - m0
	close(errc)
	return acc, <-errc
}

func serveOne(st *serveState, client *http.Client, i uint64, traced *ledger, acc *serveAcc) error {
	u, smp := st.request(i)
	id := strconv.FormatUint(i, 10)
	op := &serveOp{key: fmt.Sprintf("%s_%d", st.entries[smp.wk.entry].name, smp.wk.seed)}
	var tr *obs.Trace
	var rt *obs.Span
	if traced != nil {
		tr = obs.New("serve.request")
		// The round-trip span's self time is the client side of the
		// request: HTTP transport, connections and reading the reply,
		// outside the server's handler, whose span nests under it.
		op.ctx, rt = obs.StartSpan(obs.WithTrace(context.Background(), tr), "server.roundtrip")
	}
	st.flights.ops.Store(id, op)
	defer st.flights.ops.Delete(id)
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set(reqHeader, id)
	t := time.Now()
	resp, err := client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t)
	rt.End()
	if tr != nil {
		tr.Finish()
		traced.add(tr)
	}

	acc.mu.Lock()
	defer acc.mu.Unlock()
	acc.requests++
	switch {
	case err != nil:
		acc.bad++
		acc.badNotes = append(acc.badNotes, fmt.Sprintf("request %d: %v", i, err))
		return nil
	case resp.StatusCode == http.StatusTooManyRequests:
		acc.rejected++
		acc.bad++
		return nil
	case resp.StatusCode/100 != 2:
		acc.bad++
		acc.badNotes = append(acc.badNotes, fmt.Sprintf("request %d: %s: %s", i, resp.Status, bytes.TrimSpace(body)))
		return nil
	}
	acc.ok++
	h := time.Duration(op.handler.Load())
	acc.handler = append(acc.handler, ms(h))
	acc.client = append(acc.client, ms(d-h))
	acc.respBytes = append(acc.respBytes, float64(op.bytes.Load()))
	pts := 1
	if smp.sweep {
		pts = serveSweepConfigs
	}
	acc.done = append(acc.done, completion{at: time.Since(acc.start), points: pts})
	if smp.sweep {
		acc.points += serveSweepConfigs
		if _, seen := acc.sweepBody[smp.wk]; !seen {
			acc.sweepBody[smp.wk] = body
		}
	} else {
		acc.points++
		acc.predict = append(acc.predict, ms(d))
		acc.predictAt = append(acc.predictAt, time.Since(acc.start))
	}
	if st.gen.sampled(i, serveSampleN) {
		smp.body = body
		acc.samples = append(acc.samples, smp)
	}
	return nil
}

// checkSamples rebuilds every sampled body with server.BuildPredict or
// server.BuildSweep on a private in-process session and compares bytes:
// the server must answer exactly what the library computes.
func checkSamples(st *serveState, opts options, acc *serveAcc, rep *report) error {
	rep.attempted += acc.requests
	rep.failed += acc.bad
	for i, n := range acc.badNotes {
		if i < 10 {
			rep.notef("FAILED: %s", n)
		}
	}
	eng := engine.New(engine.Options{Workers: opts.workers})
	sess := eng.NewSessionWith(engine.SessionOptions{MaxBytes: serveMaxBytes})
	ctx := context.Background()
	for _, s := range acc.samples {
		e := st.entries[s.wk.entry]
		var v any
		var err error
		if s.sweep {
			v, err = server.BuildSweep(ctx, sess, e.bm, server.SweepRequest{Bench: e.name, Configs: serveSweepConfigs, Seed: s.wk.seed, Scale: e.scale})
		} else {
			cfg := st.tableIV[s.cfg]
			v, err = server.BuildPredict(ctx, sess, e.bm, cfg, server.PredictRequest{Bench: e.name, Config: cfg.Name, Seed: s.wk.seed, Scale: e.scale})
		}
		if err != nil {
			return err
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			return err
		}
		if !bytes.Equal(want.Bytes(), s.body) {
			rep.failed++
			rep.notef("MISMATCH: serve %s seed %d (sweep %v): body differs from the in-process build", e.name, s.wk.seed, s.sweep)
		}
	}
	rep.notef("serve checks: %d requests, %d failed or refused, %d sampled bodies compared byte for byte", acc.requests, acc.bad, len(acc.samples))
	return nil
}

func runServe(opts options) (*report, error) {
	rep := newReport()
	work := filepath.Join(opts.outDir, fmt.Sprintf("serve-work-%d", os.Getpid()))
	defer os.RemoveAll(work)
	n := 0
	setup := func() (*serveState, error) {
		n++
		return serveSetup(opts, filepath.Join(work, strconv.Itoa(n)))
	}
	st, setupS, err := setupTimes(setupReps, setup, func(s *serveState) { s.stop() })
	if err != nil {
		return nil, err
	}
	resetPeakRSS(rep)
	acc, err := serveMeasure(st, opts, nil)
	if serr := st.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	// Peak RSS before the checks, whose private session is not serving.
	rss, rssErr := peakRSSMB()
	if err := checkSamples(st, opts, acc, rep); err != nil {
		return nil, err
	}
	if !opts.trace {
		rep.set("setup_s", setupS)
		serveEndToEnd(st, acc, rep)
		if rssErr != nil {
			rep.notef("peak_rss_mb: %v", rssErr)
		}
		rep.set("peak_rss_mb", rss)
		return rep, nil
	}
	// The traced phase starts from a fresh set-up, so both phases see the
	// same cache and trace-dir state.
	tst, err := setup()
	if err != nil {
		return nil, err
	}
	led := newLedger()
	tacc, err := serveMeasure(tst, opts, led)
	if serr := tst.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if err := checkSamples(tst, opts, tacc, rep); err != nil {
		return nil, err
	}
	if err := serveLayers(tst, acc, tacc, led, rep); err != nil {
		return nil, err
	}
	return rep, led.write(opts, nil)
}

func serveEndToEnd(st *serveState, acc *serveAcc, rep *report) {
	req, pts := acc.rates()
	rep.set("points_per_s", pts)
	rep.set("req_per_s", req)
	p50 := percentile(acc.predict, 50)
	tail, sels := groupTail(acc.tailWindows(), 99)
	rep.set("predict_ms_p50", p50.Value)
	rep.set("predict_ms_p99", tail)
	rep.notef("predict_ms (HTTP round trip): p50 %s; tail %s of %v windows", p50, describeGroups(sels), serveTailWindow)
	evs := st.events.snapshot()
	profs := freshColdProfiles(evs)
	rep.set("profile_ms_p50", medianOfMedians(profs))
	rep.notef("profile_ms_p50: median over %d entries of each entry's median over its fresh cold keys", len(profs))
	rep.set("sim_ms_per_point", mean(durationsMS(eventDurations(evs, engine.EventSimulate))))
	errs, err := sweepErrors(acc)
	if err != nil {
		rep.notef("rppm_err_pct: %v", err)
	}
	rep.set("rppm_err_pct", mean(errs))
	rep.notef("rppm_err_pct over %d served sweep points of %d distinct keys", len(errs), len(acc.sweepBody))
}

func (r *eventRecorder) snapshot() []engine.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]engine.Event(nil), r.events...)
}

// freshColdProfiles returns, per entry, the build + record + profile
// milliseconds of each workload key the measured server profiled itself.
func freshColdProfiles(evs []engine.Event) map[string][]float64 {
	sum := map[string]time.Duration{}
	profiled := map[string]bool{}
	for _, ev := range evs {
		k := fmt.Sprintf("%s_%d", ev.Bench, ev.Seed)
		switch ev.Kind {
		case engine.EventBuild, engine.EventRecord:
			sum[k] += ev.Duration
		case engine.EventProfile:
			sum[k] += ev.Duration
			profiled[k] = true
		}
	}
	out := map[string][]float64{}
	for k := range profiled {
		bench := k[:strings.LastIndexByte(k, '_')]
		out[bench] = append(out[bench], ms(sum[k]))
	}
	return out
}

// sweepErrors returns |RPPM - sim| / sim in percent for every point of the
// distinct sweep responses the server returned.
func sweepErrors(acc *serveAcc) ([]float64, error) {
	var out []float64
	for _, body := range acc.sweepBody {
		var resp server.SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return out, err
		}
		for _, p := range resp.Points {
			out = append(out, relErrPct(p.PredictedCycles, p.SimCycles))
		}
	}
	return out, nil
}

func serveLayers(st *serveState, acc, tacc *serveAcc, led *ledger, rep *report) error {
	evs := st.events.snapshot()
	stage := func(k engine.EventKind) float64 { return mean(durationsMS(eventDurations(evs, k))) }
	// Instruction counts of the keys the server recorded or profiled.
	instrs := map[string]uint64{}
	var recDur, profDur, simDur time.Duration
	var recN, profN, simN uint64
	for _, ev := range evs {
		k := fmt.Sprintf("%s_%d", ev.Bench, ev.Seed)
		if _, ok := instrs[k]; !ok && (ev.Kind == engine.EventRecord || ev.Kind == engine.EventProfile || ev.Kind == engine.EventSimulate) {
			n, err := instructionsOf(st, ev.Bench, ev.Seed)
			if err != nil {
				return err
			}
			instrs[k] = n
		}
		switch ev.Kind {
		case engine.EventRecord:
			recDur += ev.Duration
			recN += instrs[k]
		case engine.EventProfile:
			profDur += ev.Duration
			profN += instrs[k]
		case engine.EventSimulate:
			simDur += ev.Duration
			simN += instrs[k]
		}
	}
	rep.set("workload.build_ms", stage(engine.EventBuild))
	rep.set("trace.record_ns_per_instr", float64(recDur)/float64(recN))
	rep.set("profiler.run_ns_per_instr", float64(profDur)/float64(profN))
	rep.set("sim.serial_ns_per_instr", float64(simDur)/float64(simN))

	var waits []float64
	for _, ev := range evs {
		waits = append(waits, ms(ev.Wait))
	}
	w := percentile(waits, 99)
	rep.set("engine.pool_wait_ms_p99", w.Value)
	rep.notef("engine.pool_wait_ms_p99: %s", w)
	rep.set("engine.stage_ms.build", stage(engine.EventBuild))
	rep.set("engine.stage_ms.record", stage(engine.EventRecord))
	rep.set("engine.stage_ms.profile", stage(engine.EventProfile))
	rep.set("engine.stage_ms.predict", stage(engine.EventPredict))
	rep.set("engine.stage_ms.simulate", stage(engine.EventSimulate))
	s := st.srv.Session().Stats()
	rep.set("engine.hit_ratio", float64(s.Hits)/float64(s.Hits+s.Misses))
	rep.set("engine.evictions", float64(s.Evictions))
	rep.set("engine.profile_runs", float64(s.Profiles.Runs))
	rep.set("engine.profile_loads", float64(s.Profiles.Loads))
	rep.set("engine.compact_hits", float64(s.Profiles.CompactHits))
	rep.set("engine.promotions", float64(s.Profiles.Promotions))

	fst := st.fs.stats()
	rep.set("storefs.read_ms", ms(fst.readTime)/float64(max(fst.reads, 1)))
	rep.set("storefs.write_ms", ms(fst.writeTime)/float64(max(fst.writes, 1)))
	rep.set("storefs.ops", float64(fst.calls))
	rep.set("storefs.bytes_read", float64(fst.bytesRead))
	rep.set("storefs.bytes_written", float64(fst.bytesWritten))
	rep.notef("storefs: %d reads, %d writes, %d FS calls", fst.reads, fst.writes, fst.calls)

	rep.set("server.handler_ms_p50", percentile(tacc.handler, 50).Value)
	rep.set("server.client_ms_p50", percentile(tacc.client, 50).Value)
	rep.set("server.resp_bytes_p50", percentile(tacc.respBytes, 50).Value)
	// Whole-process allocations (clients and server share the process),
	// from the untraced phase.
	rep.set("server.allocs_per_req", float64(acc.allocs)/float64(max(acc.requests, 1)))
	rep.set("server.rejected", float64(tacc.rejected))

	led.report(rep)
	ur, _ := acc.rates()
	tr, _ := tacc.rates()
	overhead := ur / tr
	rep.set("ledger.trace_overhead", overhead)
	rep.notef("tracing overhead: traced wall per request / untraced = %.4f", overhead)
	return nil
}

// instructionsOf records one serve workload key to learn its instruction
// count (off the clock, after the measurement).
func instructionsOf(st *serveState, bench string, seed uint64) (uint64, error) {
	for _, e := range st.entries {
		if e.name == bench {
			rec, err := trace.Record(e.bm.Build(seed, e.scale))
			if err != nil {
				return 0, err
			}
			return rec.Instructions(), nil
		}
	}
	return 0, fmt.Errorf("unknown serve entry %q", bench)
}
