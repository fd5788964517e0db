package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	"rppm/internal/arch"
	"rppm/internal/cache"
	"rppm/internal/core"
	"rppm/internal/engine"
	"rppm/internal/obs"
	"rppm/internal/prng"
	"rppm/internal/profiler"
	"rppm/internal/sim"
	"rppm/internal/trace"
	"rppm/internal/workload"
)

const (
	validateConfigs = 16
	// validateWarmup is the entry swept once during set-up.
	validateWarmup = "kmeans"
	// validateMinPasses gives every per-point median at least five
	// samples. A heavy prediction takes up to twice as long when a
	// garbage-collection cycle overlaps it, and a median of three let
	// that move the latency tail by a fifth from run to run.
	validateMinPasses = 5
)

// eventLog collects the engine progress events of the operation in
// flight and, in a traced run, places each as a span under it.
type eventLog struct {
	mu     sync.Mutex
	events []engine.Event
	track  *hookTrack
}

func (l *eventLog) sink(ev engine.Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	track := l.track
	l.mu.Unlock()
	if track != nil {
		track.place("engine."+ev.Kind.String(), ev.Duration)
	}
}

// take returns the collected events and starts a new operation.
func (l *eventLog) take(track *hookTrack) []engine.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.events
	l.events, l.track = nil, track
	return evs
}

// validateState is validate's set-up. The programs are the registry's,
// at its seeds and scales, as in the golden Figure 4 flow: validate
// measures the simulator and the model on fixed inputs, and the seed
// orders the entries and draws the configs checked against sim.Run.
type validateState struct {
	entries []benchEntry
	space   []arch.Config
	eng     *engine.Engine
	log     *eventLog
	src     *prng.Source // draws each entry's serially re-simulated config
}

func validateSetup(seed uint64) (*validateState, error) {
	reg, err := workload.DefaultSuites()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(reg.Entries))
	for i, e := range reg.Entries {
		names[i] = e.Name
	}
	entries, err := resolveEntries(names, 0)
	if err != nil {
		return nil, err
	}
	src := prng.New(seed)
	log := &eventLog{}
	// One engine worker: the sweep's stages then run one at a time, so
	// their progress events tile the sweep's wall time and the layer
	// ledger closes; it also leaves the second core to the harness and
	// the garbage collector, which keeps runs steady on a shared host.
	st := &validateState{
		entries: shuffled(src, entries),
		space:   arch.SweepSpace(validateConfigs),
		eng:     engine.New(engine.Options{Workers: 1, Progress: log.sink}),
		log:     log,
		src:     src,
	}
	warm, err := resolveEntries([]string{validateWarmup}, goldenScale)
	if err != nil {
		return nil, err
	}
	_, _, err = st.eng.NewSession().SimulatePredictSweep(context.Background(), warm[0].bm, warm[0].seed, goldenScale, st.space)
	log.take(nil)
	return st, err
}

// validateAcc accumulates one measurement phase of validate.
type validateAcc struct {
	wall           time.Duration
	passes, sweeps int
	points         int
	events         []engine.Event
	profile        map[string][]float64 // entry -> build + record + profile ms per pass
	errs           []float64            // |RPPM - sim| / sim per point, first pass
	errsByKind     map[string][]float64
	simInstrs      uint64 // first pass
	filterHits     uint64
	dirProbes      uint64
	instrs         map[string]uint64 // entry -> recorded instructions
	sweepWall      map[string][]time.Duration
	passPredict    [][]float64 // pass -> predict-stage ms of each design point
	passRSS        []float64   // pass -> peak RSS in MB
	rssErr         error
	stats          engine.Stats
	firstPass      bool

	// Traced phase only: simulation time by how the engine stepped the
	// configs, read from its own spans, and its trace decodes.
	batched, serial, decode, decodeInBatch    time.Duration
	batchedInstrs, serialInstrs, decodeInstrs uint64
	batchedSims, serialSims                   int
}

// sweepEntry sweeps one entry on a fresh session (so every pass does the
// full work) and checks its outputs.
func sweepEntry(st *validateState, e benchEntry, traced *ledger, acc *validateAcc, rep *report, extra func(sess *engine.Session, e benchEntry, sims []*sim.Result)) error {
	// The engine gets a context without the trace: its own stage spans
	// include pool waits and overlap. The ledger's spans come from the
	// progress events, placed under the benchmark's root span.
	// In a traced run the engine records its own spans in a trace of
	// their own, kept out of the ledger: they tell which configs it
	// stepped in batches and where it decoded the trace.
	ctx := context.Background()
	var tr, engTr *obs.Trace
	var track *hookTrack
	engCtx := ctx
	if traced != nil {
		tr = obs.New("validate.sweep")
		track = newHookTrack(obs.WithTrace(ctx, tr), nil)
		engTr = obs.New("engine.sweep")
		engCtx = obs.WithTrace(ctx, engTr)
	}
	// Each sweep starts from a collected heap, off the clock. Left to
	// the previous entry's garbage, the collector's pacing slowed all of
	// one sweep's predictions or none of them, which flipped the
	// predict-stage tail between runs.
	runtime.GC()
	st.log.take(track)
	sess := st.eng.NewSession()
	t0 := time.Now()
	sims, preds, err := sess.SimulatePredictSweep(engCtx, e.bm, e.seed, e.scale, st.space)
	d := time.Since(t0)
	evs := st.log.take(nil)
	if err != nil {
		return fmt.Errorf("%s: sweep: %w", e.name, err)
	}
	if tr != nil {
		tr.Finish()
		traced.add(tr)
	}
	acc.wall += d
	acc.sweepWall[e.name] = append(acc.sweepWall[e.name], d)
	acc.sweeps++
	acc.points += len(st.space)
	acc.events = append(acc.events, evs...)
	if len(acc.passPredict) <= acc.passes {
		acc.passPredict = append(acc.passPredict, nil)
	}
	var prof time.Duration
	for _, ev := range evs {
		switch ev.Kind {
		case engine.EventBuild, engine.EventRecord, engine.EventProfile:
			prof += ev.Duration
		case engine.EventPredict:
			acc.passPredict[acc.passes] = append(acc.passPredict[acc.passes], ms(ev.Duration))
		}
	}
	acc.profile[e.name] = append(acc.profile[e.name], ms(prof))
	s := sess.Stats()
	acc.stats.Hits += s.Hits
	acc.stats.Misses += s.Misses
	acc.stats.Profiles.Runs += s.Profiles.Runs

	// Output checks, off the clock. The session still holds the profile
	// and the recording, so these lookups are cache hits.
	p, err := sess.Profile(ctx, e.bm, e.seed, e.scale)
	if err != nil {
		return err
	}
	rec, err := sess.Recorded(ctx, e.bm, e.seed, e.scale)
	if err != nil {
		return err
	}
	acc.instrs[e.name] = rec.Instructions()
	if engTr != nil {
		engTr.Finish()
		acc.addSimModes(engineSimModes(engTr), evs, rec.Instructions(), e.name, rep)
	}
	for i, cfg := range st.space {
		again, err := core.Predict(p, cfg)
		rep.check(err == nil && reflect.DeepEqual(preds[i], again),
			"validate %s on %s: sweep prediction differs from core.Predict", e.name, cfg.Name)
	}
	k := st.src.Intn(len(st.space))
	serial, err := sim.Run(rec, st.space[k])
	rep.check(err == nil && sameSim(serial, sims[k]),
		"validate %s on %s: sweep simulation differs from a serial sim.Run", e.name, st.space[k].Name)

	if acc.firstPass {
		kind := kindOf(e.bm)
		for i := range st.space {
			er := relErrPct(preds[i].Cycles, sims[i].Cycles)
			acc.errs = append(acc.errs, er)
			acc.errsByKind[kind] = append(acc.errsByKind[kind], er)
			acc.simInstrs += sims[i].TotalInstr()
			acc.filterHits += sims[i].FilterHits
			acc.dirProbes += sims[i].DirProbes
		}
		if extra != nil {
			extra(sess, e, sims)
		}
	}
	return nil
}

// simModes is what the engine's spans of one sweep show about its
// simulations: the configs it simulated one at a time (a "simulate" span
// that computed), how many it simulated inside config batches (the
// "width" of each "simulate-batch" span), and its trace decodes — in
// total, and the part that ran inside a batch's timed pass, whose
// per-config progress events include it.
type simModes struct {
	serial        map[string]bool
	batched       int
	decode        time.Duration
	decodeInBatch time.Duration
}

func engineSimModes(t *obs.Trace) simModes {
	m := simModes{serial: map[string]bool{}}
	type iv struct{ a, b time.Duration }
	var batches, decodes []iv
	t.Walk(func(_ int, s obs.SpanSnapshot) {
		attr := func(k string) string {
			for _, a := range s.Attrs {
				if a.Key == k {
					return a.Value
				}
			}
			return ""
		}
		switch s.Name {
		case "simulate":
			if attr("cache") == "miss" {
				m.serial[attr("config")] = true
			}
		case "simulate-batch":
			w, _ := strconv.Atoi(attr("width"))
			m.batched += w
			batches = append(batches, iv{s.Start, s.Start + s.Dur})
		case "decode":
			m.decode += s.Dur
			decodes = append(decodes, iv{s.Start, s.Start + s.Dur})
		}
	})
	for _, d := range decodes {
		for _, b := range batches {
			if d.a >= b.a && d.b <= b.b {
				m.decodeInBatch += d.b - d.a
				break
			}
		}
	}
	return m
}

// addSimModes splits one sweep's simulate events into batched and
// serial by what the engine's spans show, and checks that the two
// agree.
func (acc *validateAcc) addSimModes(m simModes, evs []engine.Event, instrs uint64, name string, rep *report) {
	var batched, serial time.Duration
	nb, ns := 0, 0
	for _, ev := range evs {
		if ev.Kind != engine.EventSimulate {
			continue
		}
		if m.serial[ev.Config] {
			serial += ev.Duration
			ns++
		} else {
			batched += ev.Duration
			nb++
		}
	}
	rep.check(nb == m.batched && ns == len(m.serial),
		"validate %s: %d batched and %d serial simulate events, but the engine's spans show %d and %d",
		name, nb, ns, m.batched, len(m.serial))
	acc.batched += batched - m.decodeInBatch
	acc.decodeInBatch += m.decodeInBatch
	acc.batchedSims += nb
	acc.serialSims += ns
	acc.batchedInstrs += uint64(nb) * instrs
	acc.serial += serial
	acc.serialInstrs += uint64(ns) * instrs
	if m.decode > 0 {
		acc.decode += m.decode
		acc.decodeInstrs += instrs
	}
}

// sameSim compares the simulated outcome. The filter counters are
// diagnostics outside the golden invariants and are not compared.
func sameSim(a, b *sim.Result) bool {
	return a.Cycles == b.Cycles && a.Seconds == b.Seconds && reflect.DeepEqual(a.Threads, b.Threads)
}

func kindOf(bm workload.Benchmark) string {
	if bm.Family != "" {
		return "synthetic"
	}
	if bm.Kind == workload.Rodinia {
		return "rodinia"
	}
	return "parsec"
}

func validateMeasure(st *validateState, opts options, traced *ledger, rep *report, extra func(*engine.Session, benchEntry, []*sim.Result)) (*validateAcc, error) {
	acc := &validateAcc{errsByKind: map[string][]float64{}, instrs: map[string]uint64{},
		sweepWall: map[string][]time.Duration{}, profile: map[string][]float64{}, firstPass: true}
	// At least validateMinPasses passes, so every per-point median has
	// that many samples. Peak RSS is taken per pass, from a collected heap, and reported as
	// the median: the peak of the whole run is the largest of the passes'
	// peaks, which moved by a tenth between runs with how far the heap
	// overshot while the host was slow.
	for acc.wall < opts.seconds || acc.passes < validateMinPasses {
		resetPeakRSS(rep)
		for _, e := range st.entries {
			if err := sweepEntry(st, e, traced, acc, rep, extra); err != nil {
				return nil, err
			}
		}
		rss, err := peakRSSMB()
		if err != nil {
			acc.rssErr = err
		}
		acc.passRSS = append(acc.passRSS, rss)
		acc.passes++
		acc.firstPass = false
	}
	return acc, nil
}

// sweepRate is sweeps per second from each entry's median sweep time
// over the passes, so a pass slowed by a transient stall on a shared host
// does not move it.
func (acc *validateAcc) sweepRate() float64 {
	var t time.Duration
	for _, ds := range acc.sweepWall {
		t += time.Duration(median(durationsNS(ds)))
	}
	return float64(len(acc.sweepWall)) / t.Seconds()
}

func eventDurations(evs []engine.Event, kind engine.EventKind) []time.Duration {
	var out []time.Duration
	for _, ev := range evs {
		if ev.Kind == kind {
			out = append(out, ev.Duration)
		}
	}
	return out
}

func runValidate(opts options) (*report, error) {
	rep := newReport()
	st, setupS, err := setupTimes(setupReps, func() (*validateState, error) { return validateSetup(opts.seed) }, nil)
	if err != nil {
		return nil, err
	}
	acc, err := validateMeasure(st, opts, nil, rep, nil)
	if err != nil {
		return nil, err
	}
	if !opts.trace {
		rep.set("setup_s", setupS)
		validateEndToEnd(acc, rep)
		return rep, nil
	}
	led := newLedger()
	x := &validateExtras{}
	tacc, err := validateMeasure(st, opts, led, rep, func(sess *engine.Session, e benchEntry, sims []*sim.Result) {
		x.measure(sess, e, st.space, sims, led)
	})
	if err != nil {
		return nil, err
	}
	if x.err != nil {
		return nil, x.err
	}
	if err := x.fixedCost(st.space, led); err != nil {
		return nil, err
	}
	if err := x.heldOut(st.entries, opts.seed); err != nil {
		return nil, err
	}
	validateLayers(acc, tacc, x, led, rep)
	return rep, led.write(opts, nil)
}

func validateEndToEnd(acc *validateAcc, rep *report) {
	sweeps := acc.sweepRate()
	rep.set("points_per_s", sweeps*validateConfigs)
	rep.set("req_per_s", sweeps)
	// As in explore, latency is taken over design points. The median is
	// over each (entry, config) point's median predict-stage time over
	// the passes. The tail is taken within each pass and the median over
	// passes reported, as serve does with its time windows: it lands
	// among the points of two or three heavy entries, whose predictions
	// in one sweep are slowed together when collections overlap them,
	// and it spread less between runs this way than over point medians.
	byPoint := map[string][]float64{}
	for _, ev := range acc.events {
		if ev.Kind == engine.EventPredict {
			k := ev.Bench + "/" + ev.Config
			byPoint[k] = append(byPoint[k], ms(ev.Duration))
		}
	}
	var pts []float64
	for _, xs := range byPoint {
		pts = append(pts, median(xs))
	}
	p50 := percentile(pts, 50)
	tail, sels := groupTail(acc.passPredict, 99)
	rep.set("predict_ms_p50", p50.Value)
	rep.set("predict_ms_p99", tail)
	rep.notef("predict_ms (engine predict stage) over design points: p50 %s of each point's median over %d passes; tail %s, one group per pass", p50, acc.passes, describeGroups(sels))
	rep.set("profile_ms_p50", medianOfMedians(acc.profile))
	rep.notef("profile_ms_p50: median over %d entries of each entry's median over %d passes", len(acc.profile), acc.passes)
	rep.set("sim_ms_per_point", mean(durationsMS(eventDurations(acc.events, engine.EventSimulate))))
	rep.set("rppm_err_pct", mean(acc.errs))
	rep.notef("rppm_err_pct over %d points; %d passes of %d sweeps", len(acc.errs), acc.passes, acc.sweeps/max(acc.passes, 1))
	if acc.rssErr != nil {
		rep.notef("peak_rss_mb: %v", acc.rssErr)
	}
	rep.set("peak_rss_mb", median(acc.passRSS))
	rep.notef("peak_rss_mb: median over %d passes of each pass's peak", len(acc.passRSS))
}

// validateExtras are the traced run's direct layer measurements on each
// entry of the first traced pass: a cache-hierarchy replay and the
// MAIN/CRIT baselines. Each is one span under its own root.
type validateExtras struct {
	served        [cache.NumLevels]uint64
	mainErr       []float64
	critErr       []float64
	fixed         time.Duration
	fixedConfigs  int
	heldOutErr    []float64
	heldOutOffset uint64
	err           error
}

// heldOut is the model's check on unseen programs. The timed sweeps run
// the registry's programs, on which the model's calibration constants
// were fitted; here every entry is generated again with its registry
// seed + 1 + seed, predicted and simulated at the Table IV points, off
// the clock and outside the ledger.
func (x *validateExtras) heldOut(entries []benchEntry, seed uint64) error {
	x.heldOutOffset = 1 + seed
	for _, e := range entries {
		rec, err := trace.Record(e.bm.Build(e.seed+x.heldOutOffset, e.scale))
		if err != nil {
			return fmt.Errorf("%s, held out: %w", e.name, err)
		}
		p, err := profiler.Run(rec, profiler.Options{})
		if err != nil {
			return fmt.Errorf("%s, held out: %w", e.name, err)
		}
		for _, cfg := range arch.DesignSpace() {
			pred, err := core.Predict(p, cfg)
			if err != nil {
				return fmt.Errorf("%s on %s, held out: %w", e.name, cfg.Name, err)
			}
			res, err := sim.Run(rec, cfg)
			if err != nil {
				return fmt.Errorf("%s on %s, held out: %w", e.name, cfg.Name, err)
			}
			x.heldOutErr = append(x.heldOutErr, relErrPct(pred.Cycles, res.Cycles))
		}
	}
	return nil
}

func (x *validateExtras) measure(sess *engine.Session, e benchEntry, space []arch.Config, sims []*sim.Result, led *ledger) {
	if x.err != nil {
		return
	}
	rec, err := sess.Recorded(context.Background(), e.bm, e.seed, e.scale)
	if err != nil {
		x.err = err
		return
	}
	p, err := sess.Profile(context.Background(), e.bm, e.seed, e.scale)
	if err != nil {
		x.err = err
		return
	}
	tr := obs.New("validate.layers")
	ctx := obs.WithTrace(context.Background(), tr)

	sp := obs.Start(ctx, "cache.replay")
	served := replayData(rec, space[0])
	sp.End()
	for i := range served {
		x.served[i] += served[i]
	}

	sp = obs.Start(ctx, "core.baselines")
	for i, cfg := range space {
		m, err1 := core.PredictMain(p, cfg)
		c, err2 := core.PredictCrit(p, cfg)
		if err1 != nil || err2 != nil {
			x.err = fmt.Errorf("%s on %s: baselines: %v %v", e.name, cfg.Name, err1, err2)
			break
		}
		x.mainErr = append(x.mainErr, relErrPct(m, sims[i].Cycles))
		x.critErr = append(x.critErr, relErrPct(c, sims[i].Cycles))
	}
	sp.End()
	tr.Finish()
	led.add(tr)
}

// replayData runs rec's data accesses through a fresh cache hierarchy of
// cfg — caches start empty, as in every simulation — interleaving the
// threads round-robin one item at a time, each on core tid mod Cores as
// the simulator places them, and returns the per-level served counts
// summed over cores.
func replayData(rec *trace.Recorded, cfg arch.Config) []uint64 {
	h := cache.NewHierarchy(cfg)
	n := rec.NumThreads()
	streams := make([]trace.ThreadStream, n)
	for i := range streams {
		streams[i] = rec.Thread(i)
	}
	for live := n; live > 0; {
		live = 0
		for tid, s := range streams {
			if s == nil {
				continue
			}
			it, ok := s.Next()
			if !ok {
				streams[tid] = nil
				continue
			}
			live++
			if !it.IsSync && it.Instr.Class.IsMem() {
				h.AccessData(tid%cfg.Cores, it.Instr.Addr, it.Instr.Class == trace.Store)
			}
		}
	}
	out := make([]uint64, cache.NumLevels)
	for c := 0; c < cfg.Cores; c++ {
		for l, v := range h.Served(c) {
			out[l] += v
		}
	}
	return out
}

// fixedCost times simulating a minimal one-thread program on every config
// of the space: the per-config cost of building and tearing down a
// simulated machine, which no amount of trace amortises.
func (x *validateExtras) fixedCost(space []arch.Config, led *ledger) error {
	items := make([]trace.Item, 0, 65)
	for i := 0; i < 64; i++ {
		items = append(items, trace.InstrItem(trace.Instr{Class: trace.IntALU, Dst: int8(i % 8), Src1: -1, Src2: -1, PC: uint64(4 * i)}))
	}
	items = append(items, trace.SyncItem(trace.Event{Kind: trace.SyncThreadExit}))
	prog := &trace.SliceProgram{ProgName: "minimal", Threads: [][]trace.Item{items}}
	tr := obs.New("validate.fixed")
	ctx := obs.WithTrace(context.Background(), tr)
	sp := obs.Start(ctx, "sim.fixed")
	const reps = 20
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, cfg := range space {
			if _, err := sim.Run(prog, cfg); err != nil {
				return fmt.Errorf("minimal program on %s: %w", cfg.Name, err)
			}
		}
	}
	x.fixed += time.Since(t)
	x.fixedConfigs += reps * len(space)
	sp.End()
	tr.Finish()
	led.add(tr)
	return nil
}

func validateLayers(acc, tacc *validateAcc, x *validateExtras, led *ledger, rep *report) {
	evs := tacc.events
	stage := func(k engine.EventKind) float64 { return mean(durationsMS(eventDurations(evs, k))) }
	var recDur, profDur time.Duration
	var recInstrs, profInstrs uint64
	for _, ev := range evs {
		n := tacc.instrs[ev.Bench]
		switch ev.Kind {
		case engine.EventRecord:
			recDur += ev.Duration
			recInstrs += n
		case engine.EventProfile:
			profDur += ev.Duration
			profInstrs += n
		}
	}
	rep.set("workload.build_ms", stage(engine.EventBuild))
	rep.set("trace.record_ns_per_instr", float64(recDur)/float64(recInstrs))
	rep.set("trace.decode_ns_per_instr", float64(tacc.decode)/float64(tacc.decodeInstrs))
	rep.set("profiler.run_ns_per_instr", float64(profDur)/float64(profInstrs))
	rep.set("sim.batched_ns_per_instr", float64(tacc.batched)/float64(tacc.batchedInstrs))
	rep.set("sim.serial_ns_per_instr", float64(tacc.serial)/float64(tacc.serialInstrs))
	rep.notef("simulations as the engine's spans show them: %d in config batches, %d one config at a time; %.1f ms of trace decode taken out of the batched time it ran inside",
		tacc.batchedSims, tacc.serialSims, ms(tacc.decodeInBatch))
	rep.set("sim.fixed_ms_per_config", ms(x.fixed)/float64(x.fixedConfigs))
	rep.set("sim.instrs", float64(tacc.simInstrs))
	var total uint64
	for _, v := range x.served {
		total += v
	}
	rep.set("cache.l1d_miss_ratio", 1-float64(x.served[cache.LevelL1])/float64(total))
	rep.set("cache.llc_miss_ratio", float64(x.served[cache.LevelMem])/float64(x.served[cache.LevelLLC]+x.served[cache.LevelMem]))
	rep.set("sim.filter_hit_ratio", float64(tacc.filterHits)/float64(tacc.filterHits+tacc.dirProbes))
	rep.notef("simulated statistics (one pass; must not move with host speed): %d instrs simulated; cache ratios from a base-config replay of %d data accesses", tacc.simInstrs, total)
	rep.set("core.err_pct.rodinia", mean(tacc.errsByKind["rodinia"]))
	rep.set("core.err_pct.parsec", mean(tacc.errsByKind["parsec"]))
	rep.set("core.err_pct.synthetic", mean(tacc.errsByKind["synthetic"]))
	rep.set("core.main_err_pct", mean(x.mainErr))
	rep.set("core.crit_err_pct", mean(x.critErr))
	rep.set("core.err_pct.heldout", mean(x.heldOutErr))
	rep.notef("core.err_pct.heldout over %d Table IV points of programs at registry seed + %d", len(x.heldOutErr), x.heldOutOffset)

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
	rep.set("engine.hit_ratio", float64(tacc.stats.Hits)/float64(tacc.stats.Hits+tacc.stats.Misses))
	rep.set("engine.profile_runs", float64(tacc.stats.Profiles.Runs))

	led.report(rep)
	overhead := acc.sweepRate() / tacc.sweepRate()
	rep.set("ledger.trace_overhead", overhead)
	rep.notef("tracing overhead: traced sweep wall per point / untraced = %.4f", overhead)
}
