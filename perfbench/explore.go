package main

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"time"

	"rppm/internal/arch"
	"rppm/internal/core"
	"rppm/internal/obs"
	"rppm/internal/prng"
	"rppm/internal/profiler"
	"rppm/internal/sim"
	"rppm/internal/stats"
	"rppm/internal/trace"
	"rppm/internal/workload"
)

// exploreEntries mixes what makes the model expensive: epoch-heavy Rodinia
// kernels, lock- and condvar-heavy Parsec programs, and the pipeline and
// phase-change families, all at the golden Figure 4 scale, where one
// prediction of pipeline costs about as much as simulating it. The
// programs are the registry's, at its seeds: explore measures the cost of
// prediction on fixed inputs, and --seed orders the entries and the
// design points. Accuracy on unseen programs is validate's to measure.
var exploreEntries = []string{"streamcluster", "pathfinder", "facesim", "vips", "pipeline", "phase-change"}

const (
	goldenScale = 0.05
	explorePts  = 256
	// exploreReps is how many times a pass profiles each entry and
	// simulates its Table IV points.
	exploreReps = 4
	// modelCountConfigs is how many configs of the space each entry is
	// predicted on while the traced run counts StatStack model builds.
	modelCountConfigs = 32
	// minPredictSamples is the fewest CPU-profile samples inside
	// core.Predict the traced run attributes phase 1 from.
	minPredictSamples = 200
)

type benchEntry struct {
	name  string
	bm    workload.Benchmark
	seed  uint64 // the registry's program seed
	scale float64
}

// resolveEntries resolves registry entry names; scale 0 keeps each
// entry's registry scale.
func resolveEntries(names []string, scale float64) ([]benchEntry, error) {
	reg, err := workload.DefaultSuites()
	if err != nil {
		return nil, err
	}
	out := make([]benchEntry, 0, len(names))
	for _, n := range names {
		e, ok := reg.ByName(n)
		if !ok {
			return nil, fmt.Errorf("no registry entry %q", n)
		}
		bm, err := e.Benchmark()
		if err != nil {
			return nil, err
		}
		sc := scale
		if sc == 0 {
			sc = e.Scale
		}
		out = append(out, benchEntry{name: n, bm: bm, seed: e.Seed, scale: sc})
	}
	return out, nil
}

// shuffled returns a seed-determined permutation of xs.
func shuffled[T any](src *prng.Source, xs []T) []T {
	perm := make([]int, len(xs))
	src.Perm(perm)
	out := make([]T, len(xs))
	for i, p := range perm {
		out[i] = xs[p]
	}
	return out
}

// exploreState is explore's set-up: the entries in seed order, the
// 256-point space in seed order, and the simulated reference cycles at
// the five Table IV points, against which the predictions' error is
// reported.
type exploreState struct {
	entries []benchEntry
	space   []arch.Config
	tableIV []arch.Config
	refCyc  map[string][]float64 // entry -> cycles per Table IV point
}

func exploreSetup(seed uint64) (*exploreState, error) {
	entries, err := resolveEntries(exploreEntries, goldenScale)
	if err != nil {
		return nil, err
	}
	src := prng.New(seed)
	st := &exploreState{
		entries: shuffled(src, entries),
		space:   shuffled(src, arch.SweepSpace(explorePts)),
		tableIV: arch.DesignSpace(),
		refCyc:  map[string][]float64{},
	}
	for _, e := range st.entries {
		rec, err := trace.Record(e.bm.Build(e.seed, e.scale))
		if err != nil {
			return nil, err
		}
		for _, cfg := range st.tableIV {
			res, err := sim.Run(rec, cfg)
			if err != nil {
				return nil, err
			}
			st.refCyc[e.name] = append(st.refCyc[e.name], res.Cycles)
		}
	}
	return st, nil
}

// exploreAcc accumulates one measurement phase of explore.
type exploreAcc struct {
	wall      time.Duration
	points    int
	passes    int
	perEntry  map[string]*entryCost
	tablePred map[string][]float64 // entry -> predicted cycles per Table IV point
	simMS     map[string][]float64 // "entry/j" -> ms per simulation of Table IV point j

	build, record, prof time.Duration
	instrs              uint64
	profiles            int
	profAllocs          uint64
	predAllocs          uint64
	predict             time.Duration // summed core.Predict calls
}

type entryCost struct {
	wall    []time.Duration // one per pass: profile plus every prediction
	profile []time.Duration
	byCfg   map[string][]time.Duration
}

// pointRate is points per second from each entry's fastest pass: time
// the hypervisor steals from a pass only ever adds to it, so the best of
// the passes is the figure the code controls.
func (acc *exploreAcc) pointRate() float64 {
	var t time.Duration
	n := 0
	for _, ec := range acc.perEntry {
		t += time.Duration(minOf(durationsNS(ec.wall)))
		n += acc.points / acc.profiles
	}
	return float64(n) / t.Seconds()
}

func newExploreAcc() *exploreAcc {
	return &exploreAcc{perEntry: map[string]*entryCost{}, tablePred: map[string][]float64{}, simMS: map[string][]float64{}}
}

// explorePass explores every entry once: generate, record and profile
// it, then predict every point of the space from the profile. Each
// prediction is checked against a second core.Predict on the same
// profile after the timed part.
func explorePass(st *exploreState, traced *ledger, acc *exploreAcc, rep *report) error {
	tableIdx := map[string]int{}
	for i, c := range st.tableIV {
		tableIdx[c.Name] = i
	}
	for _, e := range st.entries {
		ctx := context.Background()
		var tr *obs.Trace
		if traced != nil {
			tr = obs.New("explore.entry")
			ctx = obs.WithTrace(ctx, tr)
		}
		opStart := time.Now()

		sp := obs.Start(ctx, "workload.build")
		t0 := time.Now()
		prog := e.bm.Build(e.seed, e.scale)
		t1 := time.Now()
		sp.End()
		sp = obs.Start(ctx, "trace.record")
		rec, err := trace.Record(prog)
		t2 := time.Now()
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: record: %w", e.name, err)
		}
		sp = obs.Start(ctx, "profiler.run")
		m0 := mallocs()
		t3 := time.Now()
		prof, err := profiler.Run(rec, profiler.Options{})
		t4 := time.Now()
		m1 := mallocs()
		sp.End()
		if err != nil {
			return fmt.Errorf("%s: profile: %w", e.name, err)
		}
		profDur := t2.Sub(t0) + t4.Sub(t3)
		acc.build += t1.Sub(t0)
		acc.record += t2.Sub(t1)
		acc.prof += t4.Sub(t3)
		acc.instrs += rec.Instructions()
		acc.profiles++
		acc.profAllocs += m1 - m0
		ec := acc.perEntry[e.name]
		if ec == nil {
			ec = &entryCost{byCfg: map[string][]time.Duration{}}
			acc.perEntry[e.name] = ec
		}
		ec.profile = append(ec.profile, profDur)

		preds := make([]*core.Prediction, len(st.space))
		table := make([]float64, len(st.tableIV))
		m0 = mallocs()
		for i, cfg := range st.space {
			sp := obs.Start(ctx, "core.predict")
			t := time.Now()
			p, err := core.Predict(prof, cfg)
			d := time.Since(t)
			sp.End()
			if err != nil {
				return fmt.Errorf("%s on %s: predict: %w", e.name, cfg.Name, err)
			}
			preds[i] = p
			acc.predict += d
			ec.byCfg[cfg.Name] = append(ec.byCfg[cfg.Name], d)
			if j, ok := tableIdx[cfg.Name]; ok {
				table[j] = p.Cycles
			}
		}
		acc.predAllocs += mallocs() - m0
		opWall := time.Since(opStart)
		acc.wall += opWall
		ec.wall = append(ec.wall, opWall)
		acc.points += len(st.space)
		acc.tablePred[e.name] = table
		if tr != nil {
			tr.Finish()
			traced.add(tr)
		}

		for i, cfg := range st.space {
			again, err := core.Predict(prof, cfg)
			rep.check(err == nil && reflect.DeepEqual(preds[i], again),
				"explore %s on %s: prediction not reproducible", e.name, cfg.Name)
		}
		// More samples of the two short costs, off the points' clock:
		// each pass profiles the entry exploreReps times in all, so its
		// fastest profile is taken over a dozen samples rather than three
		// or four.
		for r := 1; r < exploreReps; r++ {
			t := time.Now()
			rec, err := trace.Record(e.bm.Build(e.seed, e.scale))
			if err == nil {
				_, err = profiler.Run(rec, profiler.Options{})
			}
			if err != nil {
				return fmt.Errorf("%s: profile: %w", e.name, err)
			}
			ec.profile = append(ec.profile, time.Since(t))
		}
		// The simulated reference, also off the clock: each pass
		// re-simulates the Table IV points exploreReps times, so their
		// cost is sampled across the run rather than in one burst during
		// set-up, and checks that the simulation reproduces set-up's.
		for r := 0; r < exploreReps; r++ {
			for j, cfg := range st.tableIV {
				t := time.Now()
				res, err := sim.Run(rec, cfg)
				d := time.Since(t)
				rep.check(err == nil && res.Cycles == st.refCyc[e.name][j],
					"explore %s on %s: simulation not reproducible", e.name, cfg.Name)
				k := fmt.Sprintf("%s/%d", e.name, j)
				acc.simMS[k] = append(acc.simMS[k], ms(d))
			}
		}
	}
	return nil
}

// exploreMeasure runs explore passes until the timed part reaches the
// run length.
func exploreMeasure(st *exploreState, opts options, traced *ledger, rep *report) (*exploreAcc, error) {
	acc := newExploreAcc()
	for acc.wall < opts.seconds {
		if err := explorePass(st, traced, acc, rep); err != nil {
			return nil, err
		}
		acc.passes++
	}
	return acc, nil
}

func runExplore(opts options) (*report, error) {
	rep := newReport()
	st, setupS, err := setupTimes(setupReps, func() (*exploreState, error) { return exploreSetup(opts.seed) }, nil)
	if err != nil {
		return nil, err
	}
	resetPeakRSS(rep)
	acc, err := exploreMeasure(st, opts, nil, rep)
	if err != nil {
		return nil, err
	}
	if !opts.trace {
		rep.set("setup_s", setupS)
		exploreEndToEnd(st, acc, rep)
		return rep, nil
	}
	led := newLedger()
	cpu, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	tacc, err := exploreMeasure(st, opts, led, rep)
	stacks, perr := cpu.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	mc, err := countModels(st)
	if err != nil {
		return nil, err
	}
	exploreLayers(acc, tacc, attribute(stacks), mc, led, rep)
	return rep, led.write(opts, map[string]any{"headline": exploreHeadline(st, acc, rep)})
}

// modelCount is what the traced run's counting pass saw: predictions
// made, StatStack models they built, and the distinct non-empty
// reuse-distance histograms of the profiles predicted from — the fewest
// builds that would serve them.
type modelCount struct {
	predictions int
	builds      int64
	distinct    int
}

// countModels profiles every entry, then counts the StatStack models
// built while each profile is predicted on the first modelCountConfigs
// configs of the space.
func countModels(st *exploreState) (modelCount, error) {
	var mc modelCount
	profs := make([]*profiler.Profile, len(st.entries))
	for i, e := range st.entries {
		rec, err := trace.Record(e.bm.Build(e.seed, e.scale))
		if err != nil {
			return mc, err
		}
		if profs[i], err = profiler.Run(rec, profiler.Options{}); err != nil {
			return mc, err
		}
		mc.distinct += len(distinctHistograms(profs[i]))
	}
	h, err := startHeapCounter()
	if err != nil {
		return mc, err
	}
	for i, p := range profs {
		for _, cfg := range st.space[:modelCountConfigs] {
			if _, err := core.Predict(p, cfg); err != nil {
				h.stop()
				return mc, fmt.Errorf("%s on %s: predict: %w", st.entries[i].name, cfg.Name, err)
			}
			mc.predictions++
		}
	}
	mc.builds, err = h.stop()
	return mc, err
}

// distinctHistograms returns the profile's non-empty reuse-distance
// histograms, the inputs a StatStack model is built from.
func distinctHistograms(p *profiler.Profile) map[*stats.Histogram]bool {
	out := map[*stats.Histogram]bool{}
	for _, tp := range p.Threads {
		for _, ep := range tp.Epochs {
			for _, h := range []*stats.Histogram{ep.PrivateRD, ep.GlobalRD, ep.InstrRD} {
				if h != nil && h.Count() > 0 {
					out[h] = true
				}
			}
		}
	}
	return out
}

func exploreEndToEnd(st *exploreState, acc *exploreAcc, rep *report) {
	// A library call has no queue, so its latency distribution is the
	// spread of cost over design points: each (entry, config) point's
	// fastest pass, then p50 and p99 over the 1536 points. Stolen time
	// only adds, and a long call (a pipeline prediction, a profiling pass)
	// is likelier to be hit; taking each point's best pass keeps the
	// figures on the code's cost.
	var pts, profs []float64
	for _, ec := range acc.perEntry {
		for _, ds := range ec.byCfg {
			pts = append(pts, minOf(durationsMS(ds)))
		}
		profs = append(profs, minOf(durationsMS(ec.profile)))
	}
	p50, p99 := percentile(pts, 50), percentile(pts, 99)
	// One request is one library call: a profiling pass or a prediction.
	rate := acc.pointRate()
	rep.set("points_per_s", rate)
	rep.set("req_per_s", rate*float64(acc.points+acc.profiles)/float64(acc.points))
	rep.set("predict_ms_p50", p50.Value)
	rep.set("predict_ms_p99", p99.Value)
	rep.notef("predict_ms over design points (fastest of %d passes each): p50 %s; p99 %s", acc.passes, p50, p99)
	rep.set("profile_ms_p50", median(profs))
	rep.notef("profile_ms_p50: median over %d entries of each entry's fastest of %d profiles (%d per pass)", len(profs), acc.passes*exploreReps, exploreReps)

	var errs []float64
	for _, e := range st.entries {
		for j, ref := range st.refCyc[e.name] {
			errs = append(errs, relErrPct(acc.tablePred[e.name][j], ref))
		}
	}
	var simMS []float64
	for _, ds := range acc.simMS {
		simMS = append(simMS, minOf(ds))
	}
	rep.set("sim_ms_per_point", mean(simMS))
	rep.set("rppm_err_pct", mean(errs))
	rep.notef("sim_ms_per_point: mean over %d Table IV reference points of each point's fastest of %d simulations (%d per pass); rppm_err_pct at those points", len(simMS), acc.passes*exploreReps, exploreReps)
	rss, err := peakRSSMB()
	if err != nil {
		rep.notef("peak_rss_mb: %v", err)
	}
	rep.set("peak_rss_mb", rss)
}

// exploreLayers reports the per-layer metrics. Allocation counts come
// from the untraced phase (acc), whose measurement spans do not allocate;
// times come from the traced phase (tacc). Phase 1 and its layers are
// the shares of core.Predict's CPU samples (sh) applied to its timed
// cost per call.
func exploreLayers(acc, tacc *exploreAcc, sh predictShares, mc modelCount, led *ledger, rep *report) {
	rep.set("workload.build_ms", ms(tacc.build)/float64(tacc.profiles))
	rep.set("trace.record_ns_per_instr", float64(tacc.record)/float64(tacc.instrs))
	rep.set("profiler.run_ns_per_instr", float64(tacc.prof)/float64(tacc.instrs))
	rep.set("profiler.allocs_per_run", float64(acc.profAllocs)/float64(acc.profiles))
	rep.set("core.allocs_per_predict", float64(acc.predAllocs)/float64(acc.points))

	perPredict := ms(tacc.predict) / float64(tacc.points)
	rep.set("statstack.new_ms_per_predict", perPredict*sh.share(sh.statstack))
	rep.set("ilp.analyze_ms_per_predict", perPredict*sh.share(sh.ilp))
	rep.set("mlp.compute_ms_per_predict", perPredict*sh.share(sh.mlp))
	rep.set("interval.phase1_ms_per_predict", perPredict*sh.share(sh.phase1))
	rep.set("core.phase2_ms_per_predict", perPredict*sh.share(sh.phase2()))
	rep.notef("core.Predict: %.4f ms per call over %d calls; CPU profile: %d samples inside it, %.1f%% phase 1 (statstack.New %.1f%%, ilp.Analyze %.1f%%, mlp.Compute %.1f%%), %.1f%% phase 2",
		perPredict, tacc.points, sh.samples, 100*sh.share(sh.phase1), 100*sh.share(sh.statstack),
		100*sh.share(sh.ilp), 100*sh.share(sh.mlp), 100*sh.share(sh.phase2()))
	closure := sh.phase1Closure()
	rep.check(sh.samples >= minPredictSamples && closure >= 1-phase1Tolerance,
		"explore: phase 1 does not close: statstack.New+ilp.Analyze+mlp.Compute hold %.4f of interval.PredictEpochOpts's %d samples (%d inside core.Predict; need %d and %.0f%%)",
		closure, sh.phase1, sh.samples, minPredictSamples, 100*(1-phase1Tolerance))
	rep.notef("phase-1 closure: statstack.New+ilp.Analyze+mlp.Compute hold %.4f of interval.PredictEpochOpts's CPU samples (at least %.0f%% required)",
		closure, 100*(1-phase1Tolerance))

	rep.set("statstack.builds_per_predict", float64(mc.builds)/float64(mc.predictions))
	ratio := 1.0 // no model rebuilt: nothing wasted
	if mc.builds > 0 {
		ratio = float64(mc.distinct) / float64(mc.builds)
	}
	rep.set("statstack.distinct_ratio", ratio)
	rep.notef("StatStack models: %d built over %d predictions (%d configs per entry), from %d distinct non-empty histograms",
		mc.builds, mc.predictions, modelCountConfigs, mc.distinct)

	led.report(rep)
	overhead := acc.pointRate() / tacc.pointRate()
	rep.set("ledger.trace_overhead", overhead)
	rep.notef("tracing overhead: traced wall per point / untraced = %.4f (spans and the CPU profile)", overhead)
}

// phase1Tolerance bounds the share of interval.PredictEpochOpts that is
// its own arithmetic (branch model, CPI-stack terms, statstack queries)
// rather than the three layers it calls.
const phase1Tolerance = 0.15

// headlinePoint is the paper's "rapid" claim at one Table IV design
// point, summed over the explored entries.
type headlinePoint struct {
	Config         string   `json:"config"`
	PredictNS      float64  `json:"predict_ns"`
	SimulateNS     float64  `json:"simulate_ns"`
	ProfileNS      float64  `json:"profile_ns"`
	PredictOverSim float64  `json:"predict_over_simulate"`
	BreakEven      float64  `json:"break_even_predictions"` // 0 when prediction is not cheaper
	SlowerEntries  []string `json:"entries_not_cheaper,omitempty"`
}

// exploreHeadline reports, per Table IV point, predict_ns / simulate_ns
// and the break-even count profile_ns / (simulate_ns - predict_ns): how
// many predictions pay back one profiling pass. Medians per entry; not
// gated.
func exploreHeadline(st *exploreState, acc *exploreAcc, rep *report) []headlinePoint {
	var out []headlinePoint
	rep.notef("paper headline (medians over the untraced phase's passes; not gated):")
	for j, cfg := range st.tableIV {
		h := headlinePoint{Config: cfg.Name}
		for _, e := range st.entries {
			ec := acc.perEntry[e.name]
			pred := median(durationsNS(ec.byCfg[cfg.Name]))
			simNS := 1e6 * median(acc.simMS[fmt.Sprintf("%s/%d", e.name, j)])
			h.PredictNS += pred
			h.SimulateNS += simNS
			h.ProfileNS += median(durationsNS(ec.profile))
			if pred >= simNS {
				h.SlowerEntries = append(h.SlowerEntries, e.name)
			}
		}
		h.PredictOverSim = h.PredictNS / h.SimulateNS
		if h.SimulateNS > h.PredictNS {
			h.BreakEven = h.ProfileNS / (h.SimulateNS - h.PredictNS)
		}
		sort.Strings(h.SlowerEntries)
		flag := ""
		if len(h.SlowerEntries) > 0 {
			flag = fmt.Sprintf("  prediction NOT cheaper than simulation for %v", h.SlowerEntries)
		}
		rep.notef("  %-10s predict/simulate %.3f  break-even %.2f predictions%s", cfg.Name, h.PredictOverSim, h.BreakEven, flag)
		out = append(out, h)
	}
	return out
}
