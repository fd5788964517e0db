// Command perfbench is the repository benchmark. It measures the RPPM
// pipeline end to end on three workloads and, in a separate traced run,
// breaks each one down into the pipeline's layers:
//
//   - explore:  profile a handful of registry entries, then predict all
//     256 points of arch.SweepSpace(256) from each profile — the paper's
//     "profile once, predict many" use. The model layers do the work.
//   - validate: every registry entry through Session.SimulatePredictSweep
//     over 16 configurations — the Figure 4 flow. The simulator does the
//     work, and accuracy against it is measured here.
//   - serve:    a closed loop of HTTP clients against an in-process
//     `rppm serve` handler under a memory budget, over a pre-filled
//     trace dir. Server, engine cache and artifact store do the work.
//
// Usage (from the repository root, through perfbench/run.sh):
//
//	perfbench --workload explore|validate|serve --seed N --seconds S --trace 0|1
//
// Every input is generated from --seed. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and metrics;
// lines before it are a human-readable report. --trace 0 reports the
// end-to-end metrics; --trace 1 first repeats the untraced measurement
// (for the tracing-overhead ratio), then measures again with obs spans
// recorded around every call into a layer, reports the per-layer metrics
// and writes the spans as trace_event JSON under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit. The two tables below
// mirror BENCHMARK.json.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"points_per_s", "1/s"},
	{"req_per_s", "1/s"},
	{"predict_ms_p50", "ms"},
	{"predict_ms_p99", "ms"},
	{"profile_ms_p50", "ms"},
	{"sim_ms_per_point", "ms"},
	{"rppm_err_pct", "%"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricSpec{
	{"workload.build_ms", "ms"},
	{"trace.record_ns_per_instr", "ns"},
	{"trace.decode_ns_per_instr", "ns"},
	{"profiler.run_ns_per_instr", "ns"},
	{"profiler.allocs_per_run", "count"},
	{"statstack.new_ms_per_predict", "ms"},
	{"statstack.builds_per_predict", "count"},
	{"statstack.distinct_ratio", "ratio"},
	{"ilp.analyze_ms_per_predict", "ms"},
	{"mlp.compute_ms_per_predict", "ms"},
	{"interval.phase1_ms_per_predict", "ms"},
	{"core.phase2_ms_per_predict", "ms"},
	{"core.allocs_per_predict", "count"},
	{"sim.batched_ns_per_instr", "ns"},
	{"sim.serial_ns_per_instr", "ns"},
	{"sim.fixed_ms_per_config", "ms"},
	{"sim.instrs", "count"},
	{"cache.l1d_miss_ratio", "ratio"},
	{"cache.llc_miss_ratio", "ratio"},
	{"sim.filter_hit_ratio", "ratio"},
	{"core.err_pct.rodinia", "%"},
	{"core.err_pct.parsec", "%"},
	{"core.err_pct.synthetic", "%"},
	{"core.main_err_pct", "%"},
	{"core.crit_err_pct", "%"},
	{"core.err_pct.heldout", "%"},
	{"engine.pool_wait_ms_p99", "ms"},
	{"engine.stage_ms.build", "ms"},
	{"engine.stage_ms.record", "ms"},
	{"engine.stage_ms.profile", "ms"},
	{"engine.stage_ms.predict", "ms"},
	{"engine.stage_ms.simulate", "ms"},
	{"engine.hit_ratio", "ratio"},
	{"engine.evictions", "count"},
	{"engine.profile_runs", "count"},
	{"engine.profile_loads", "count"},
	{"engine.compact_hits", "count"},
	{"engine.promotions", "count"},
	{"storefs.read_ms", "ms"},
	{"storefs.write_ms", "ms"},
	{"storefs.ops", "count"},
	{"storefs.bytes_read", "bytes"},
	{"storefs.bytes_written", "bytes"},
	{"server.handler_ms_p50", "ms"},
	{"server.client_ms_p50", "ms"},
	{"server.resp_bytes_p50", "bytes"},
	{"server.allocs_per_req", "count"},
	{"server.rejected", "count"},
	{"ledger.closure_ratio", "ratio"},
	{"ledger.trace_overhead", "ratio"},
}

// options are the parsed command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	outDir   string
	workers  int // engine workers and serve clients: at most nproc, at most 2
}

// report collects one run's outcome: the output-check counts, the metric
// values by name, and free-form report lines printed before the JSON.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one output check, and a failure with its reason.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 10 {
			r.notef("MISMATCH: "+format, args...)
		}
	}
}

type workloadFunc func(opts options) (*report, error)

var workloads = map[string]workloadFunc{
	"explore":  runExplore,
	"validate": runValidate,
	"serve":    runServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "explore, validate or serve")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 15, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for trace and ledger files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload explore|validate|serve --seed N --seconds S --trace 0|1")
		return 2
	}
	opts := options{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traced == 1,
		outDir:   *out,
		workers:  min(2, runtime.NumCPU()),
	}
	if opts.trace {
		if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	total0, steal0 := cpuTicks()
	rep, err := w(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	if total1, steal1 := cpuTicks(); total1 > total0 {
		// On a shared VM the hypervisor's steal time slows every timing
		// figure of the run; the share is reported so a reader can tell a
		// slow host from slow code.
		rep.notef("host: %.1f%% of CPU time stolen by the hypervisor during the run",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	specs := endToEnd
	if opts.trace {
		specs = perLayer
	}
	line, err := renderResult(rep, specs, !opts.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, s := range specs {
		fmt.Fprintf(stdout, "%-34s %14s %s\n", s.name, strconv.FormatFloat(rep.values[s.name], 'g', 6, 64), s.unit)
	}
	fmt.Fprintf(stdout, "checks: %d attempted, %d failed\n", rep.attempted, rep.failed)
	fmt.Fprintln(stdout, line)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// renderResult builds the final JSON line. With required set (the
// end-to-end metrics) a metric the workload did not produce is a
// benchmark bug, not a zero; per-layer metrics of layers the workload
// does not exercise read 0. A value that is not a finite number is
// always an error.
func renderResult(rep *report, specs []metricSpec, required bool) (string, error) {
	res := resultLine{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	var bad []string
	for _, s := range specs {
		v, ok := rep.values[s.name]
		if (!ok && required) || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return "", fmt.Errorf("metrics not measured: %s", strings.Join(bad, ", "))
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// cpuTicks returns the host's total and steal CPU ticks from the first
// line of /proc/stat, or zeros where it cannot be read.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// resetPeakRSS starts peak_rss_mb's window at the measured phase: it
// returns the set-ups' garbage to the OS, then resets the process's
// VmHWM to its current resident set. Where the reset is not possible the
// report says that the figure covers the set-ups too.
func resetPeakRSS(rep *report) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		rep.notef("peak_rss_mb includes the set-ups: VmHWM not reset: %v", err)
	}
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
