// Command rppm profiles, predicts and simulates the built-in multithreaded
// benchmark suite.
//
// Usage:
//
//	rppm list                          # list benchmarks and configurations
//	rppm predict  -bench NAME [flags]  # profile once, predict a config
//	rppm simulate -bench NAME [flags]  # cycle-level reference simulation
//	rppm compare  -bench NAME [flags]  # MAIN/CRIT/RPPM vs simulation
//	rppm bottle   -bench NAME [flags]  # bottle graphs (model vs simulation)
//	rppm sweep    -bench NAME [flags]  # record once, simulate -configs N points
//	rppm profile  -bench NAME [flags]  # persist a profile (.rpp) for serve spill dirs
//	rppm suite    [-verify] [-rehash]  # suite registry: list, check or regenerate invariants
//	rppm serve    [flags]              # resident HTTP/JSON prediction service
//
// Common flags: -config (smallest|small|base|big|biggest), -scale, -seed,
// -parallel; sweep takes -configs (design points, Table IV + variants);
// predict and sweep take -json (machine-readable output, byte-comparable
// with the corresponding serve endpoint); serve takes -addr, -max-bytes,
// -trace-dir, -max-inflight (see `rppm serve -h` and the README's Serving
// section).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rppm"
	"rppm/internal/arch"
	"rppm/internal/engine"
	"rppm/internal/profilefmt"
	"rppm/internal/profiler"
	"rppm/internal/server"
	"rppm/internal/suitecheck"
	"rppm/internal/textplot"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if cmd == "serve" {
		// The serve subcommand owns its flag set (shared with rppm-serve).
		os.Exit(server.Main(os.Args[2:]))
	}
	if cmd == "suite" {
		os.Exit(suiteMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	benchName := fs.String("bench", "", "benchmark name (see `rppm list`)")
	configName := fs.String("config", "base", "target configuration name")
	scale := fs.Float64("scale", 0.3, "workload scale factor (1.0 = full size)")
	seed := fs.Uint64("seed", 1, "workload generation seed")
	parallel := fs.Int("parallel", 0, "max concurrent profile/simulate jobs (0 = GOMAXPROCS)")
	nconfigs := fs.Int("configs", 16, "design points for `rppm sweep` (Table IV + derived variants)")
	traceDir := fs.String("trace-dir", "", "spill directory for `rppm profile` (writes the file name `rppm serve -trace-dir` reloads)")
	outPath := fs.String("o", "", "explicit output file for `rppm profile` (overrides -trace-dir naming)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (predict and sweep; matches the /v1/predict and /v1/sweep wire formats)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	switch cmd {
	case "list":
		list()
	case "sweep":
		if *benchName == "" {
			fatal(fmt.Errorf("missing -bench; try `rppm list`"))
		}
		if *scale <= 0 {
			fatal(fmt.Errorf("-scale must be positive, got %v", *scale))
		}
		if *nconfigs < 1 {
			fatal(fmt.Errorf("-configs must be at least 1, got %d", *nconfigs))
		}
		session := rppm.NewEngine(rppm.EngineOptions{Workers: *parallel}).NewSession()
		if *jsonOut {
			if err := jsonSweep(session, *benchName, *nconfigs, *scale, *seed); err != nil {
				fatal(err)
			}
			return
		}
		if err := sweep(session, *benchName, *nconfigs, *scale, *seed); err != nil {
			fatal(err)
		}
	case "profile":
		if *benchName == "" {
			fatal(fmt.Errorf("missing -bench; try `rppm list`"))
		}
		if *scale <= 0 {
			fatal(fmt.Errorf("-scale must be positive, got %v", *scale))
		}
		session := rppm.NewEngine(rppm.EngineOptions{Workers: *parallel}).NewSession()
		if err := writeProfile(session, *benchName, *scale, *seed, *traceDir, *outPath); err != nil {
			fatal(err)
		}
	case "predict", "simulate", "compare", "bottle":
		if *benchName == "" {
			fatal(fmt.Errorf("missing -bench; try `rppm list`"))
		}
		cfg, err := configByName(*configName)
		if err != nil {
			fatal(err)
		}
		if *scale <= 0 {
			fatal(fmt.Errorf("-scale must be positive, got %v", *scale))
		}
		session := rppm.NewEngine(rppm.EngineOptions{Workers: *parallel}).NewSession()
		if cmd == "predict" && *jsonOut {
			if err := jsonPredict(session, *benchName, cfg, *scale, *seed); err != nil {
				fatal(err)
			}
			return
		}
		if err := run(session, cmd, *benchName, cfg, *scale, *seed); err != nil {
			fatal(err)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rppm {list|predict|simulate|compare|bottle|sweep|profile|suite|serve} [-bench NAME] [-config base] [-configs 16] [-scale 0.3] [-seed 1] [-parallel N] [-json] [-trace-dir DIR] [-o FILE]")
}

// suiteMain implements the suite subcommand: with no flags it lists the
// registry; -verify runs every entry (or -entry NAME) through the
// golden-invariant harness; -rehash recomputes and prints the invariant
// hashes in suites.toml-ready form for intentional model changes.
func suiteMain(args []string) int {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	verify := fs.Bool("verify", false, "run every entry through the four execution modes and check its invariant hash")
	rehash := fs.Bool("rehash", false, "recompute invariant hashes and print them in suites.toml form")
	entry := fs.String("entry", "", "restrict -verify/-rehash to one registry entry")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	reg, err := rppm.Suites()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rppm suite:", err)
		return 1
	}
	entries := reg.Entries
	if *entry != "" {
		e, ok := reg.ByName(*entry)
		if !ok {
			fmt.Fprintf(os.Stderr, "rppm suite: no registry entry %q (try `rppm suite`)\n", *entry)
			return 1
		}
		entries = []rppm.SuiteEntry{e}
	}

	if !*verify && !*rehash {
		var rows [][]string
		for _, e := range entries {
			family := e.Family
			if family == "" {
				family = "-"
			}
			rows = append(rows, []string{e.Name, family,
				fmt.Sprintf("%d", e.Seed), fmt.Sprintf("%v", e.Scale), e.Invariant[:12] + "…"})
		}
		fmt.Print(textplot.Table([]string{"entry", "family", "seed", "scale", "invariant"}, rows))
		fmt.Println("\nfamilies:")
		var frows [][]string
		for _, f := range rppm.Families() {
			params := ""
			for i, p := range f.Params {
				if i > 0 {
					params += " "
				}
				params += fmt.Sprintf("%s=%v", p.Name, p.Default)
			}
			frows = append(frows, []string{f.Name, f.Doc, params})
		}
		fmt.Print(textplot.Table([]string{"family", "description", "defaults"}, frows))
		return 0
	}

	failed := 0
	for _, e := range entries {
		rep, err := suitecheck.CheckEntry(e)
		switch {
		case *rehash && rep != nil:
			// toml-ready: paste over the entry's invariant line.
			fmt.Printf("# %s\ninvariant = %q\n", e.Name, rep.Hash)
		case err != nil:
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", e.Name, err)
			failed++
		default:
			fmt.Printf("ok   %-16s %8d instrs  filter %5.1f%%  %s\n",
				rep.Name, rep.Instrs, 100*rep.FilterRate(), rep.Hash[:12])
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "rppm suite: %d of %d entries failed verification\n", failed, len(entries))
		return 1
	}
	return 0
}

// writeProfile collects a workload profile and persists it in the artifact
// format v2 (.rpp) — into an explicit -o file, or into -trace-dir under the
// exact name `rppm serve -trace-dir` looks up, so a serve spill directory
// can be pre-seeded and a cold server never runs the profiler.
func writeProfile(s *rppm.Session, benchName string, scale float64, seed uint64, traceDir, outPath string) error {
	bench, err := rppm.ResolveBenchmark(benchName)
	if err != nil {
		return err
	}
	prof, err := s.Profile(context.Background(), bench, seed, scale)
	if err != nil {
		return err
	}
	switch {
	case outPath != "":
		// keep as given
	case traceDir != "":
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		outPath = server.ProfileSpillPath(traceDir, engine.ProfileKey{
			Key: engine.Key{Bench: benchName, Seed: seed, Scale: scale},
		})
	default:
		return fmt.Errorf("rppm profile needs -o FILE or -trace-dir DIR")
	}
	if err := profilefmt.WriteFile(outPath, prof, profiler.Options{}); err != nil {
		return err
	}
	fmt.Printf("%s: %d threads, %d instructions, %s\n",
		outPath, prof.NumThreads, prof.TotalInstr(), benchName)
	return nil
}

// jsonPredict emits the prediction in the /v1/predict wire format, built
// by the same construction path the server uses — so the output is
// byte-comparable with a curl of the serving endpoint (the CI smoke job
// diffs exactly that).
func jsonPredict(s *rppm.Session, benchName string, cfg arch.Config, scale float64, seed uint64) error {
	bench, err := rppm.ResolveBenchmark(benchName)
	if err != nil {
		return err
	}
	resp, err := server.BuildPredict(context.Background(), s, bench, cfg, server.PredictRequest{
		Bench: benchName, Config: cfg.Name, Seed: seed, Scale: scale,
	})
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(resp)
}

// jsonSweep emits the sweep in the /v1/sweep wire format, built by the
// same construction path the server uses — so the output is
// byte-comparable with a curl of the serving endpoint (the CI smoke job
// diffs exactly that).
func jsonSweep(s *rppm.Session, benchName string, nconfigs int, scale float64, seed uint64) error {
	bench, err := rppm.ResolveBenchmark(benchName)
	if err != nil {
		return err
	}
	resp, err := server.BuildSweep(context.Background(), s, bench, server.SweepRequest{
		Bench: benchName, Configs: nconfigs, Seed: seed, Scale: scale,
	})
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(resp)
}

// sweep records the benchmark's trace once and simulates every design
// point against the recording, with the RPPM predictions (derived from one
// profile of the same recording) computed in the same fan-out, then ranks
// the points by simulated time.
func sweep(s *rppm.Session, benchName string, nconfigs int, scale float64, seed uint64) error {
	bench, err := rppm.ResolveBenchmark(benchName)
	if err != nil {
		return err
	}
	ctx := context.Background()
	space := rppm.SweepSpace(nconfigs)

	start := time.Now()
	sims, preds, err := s.SimulatePredictSweep(ctx, bench, seed, scale, space)
	if err != nil {
		return err
	}
	sweepCost := time.Since(start)

	rows := make([][]string, 0, len(space))
	best := 0
	for i, cfg := range space {
		pred := preds[i]
		if sims[i].Seconds < sims[best].Seconds {
			best = i
		}
		rows = append(rows, []string{
			cfg.Name,
			fmt.Sprintf("%.2f GHz w%d ROB %d", cfg.FrequencyGHz, cfg.DispatchWidth, cfg.ROBSize),
			fmt.Sprintf("%.3f ms", pred.Seconds*1e3),
			fmt.Sprintf("%.3f ms", sims[i].Seconds*1e3),
			fmt.Sprintf("%+.1f%%", 100*(pred.Cycles-sims[i].Cycles)/sims[i].Cycles),
		})
	}
	fmt.Printf("%s: %d-config sweep in %v (%v per config amortized; one recorded trace)\n\n",
		benchName, len(space), sweepCost.Round(time.Millisecond),
		(sweepCost / time.Duration(len(space))).Round(time.Microsecond))
	fmt.Print(textplot.Table([]string{"config", "core", "predicted", "simulated", "error"}, rows))
	fmt.Printf("\nfastest simulated design point: %s\n", space[best].Name)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rppm:", err)
	os.Exit(1)
}

func configByName(name string) (rppm.Config, error) {
	for _, c := range rppm.DesignSpace() {
		if c.Name == name {
			return c, nil
		}
	}
	return rppm.Config{}, fmt.Errorf("unknown config %q (have smallest, small, base, big, biggest)", name)
}

func list() {
	fmt.Println("benchmarks:")
	var rows [][]string
	for _, b := range rppm.Benchmarks() {
		rows = append(rows, []string{b.Name, b.Kind.String(), b.Input})
	}
	fmt.Print(textplot.Table([]string{"name", "suite", "input"}, rows))
	if reg, err := rppm.Suites(); err == nil {
		fmt.Println("\nregistry-only entries (synthetic families; see `rppm suite`):")
		var srows [][]string
		for _, e := range reg.Entries {
			if e.Family == "" {
				continue
			}
			srows = append(srows, []string{e.Name, "synthetic", "family " + e.Family})
		}
		fmt.Print(textplot.Table([]string{"name", "suite", "input"}, srows))
	}
	fmt.Println("\nconfigurations:")
	var crows [][]string
	for _, c := range rppm.DesignSpace() {
		crows = append(crows, []string{c.Name,
			fmt.Sprintf("%.2f GHz", c.FrequencyGHz),
			fmt.Sprintf("width %d", c.DispatchWidth),
			fmt.Sprintf("ROB %d", c.ROBSize)})
	}
	fmt.Print(textplot.Table([]string{"name", "clock", "pipeline", "window"}, crows))
}

// run drives one subcommand through the engine session: the workload is
// built once and shared by the profiler and the simulator, and independent
// stages (e.g. compare's profile and simulation) run concurrently.
func run(s *rppm.Session, cmd, benchName string, cfg arch.Config, scale float64, seed uint64) error {
	bench, err := rppm.ResolveBenchmark(benchName)
	if err != nil {
		return err
	}
	ctx := context.Background()

	switch cmd {
	case "simulate":
		res, err := s.Simulate(ctx, bench, seed, scale, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%s on %s: %.0f cycles (%.3f ms), %d instructions\n",
			benchName, cfg.Name, res.Cycles, res.Seconds*1e3, res.TotalInstr())
		for t, tr := range res.Threads {
			fmt.Printf("  t%d: %8d instr, active %.0f, idle %.0f cycles\n",
				t, tr.Instr, tr.ActiveCycles, tr.IdleCycles)
		}
		return nil

	case "predict":
		pred, err := s.Predict(ctx, bench, seed, scale, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%s on %s: predicted %.0f cycles (%.3f ms)\n",
			benchName, cfg.Name, pred.Cycles, pred.Seconds*1e3)
		fmt.Println(textplot.StackLegend())
		for t, tp := range pred.Threads {
			fmt.Printf("  t%d |%s\n", t, textplot.StackBar(tp.Stack, pred.Cycles, 60))
		}
		return nil

	case "compare":
		var (
			simRes *rppm.SimResult
			pred   *rppm.Prediction
		)
		err := s.ForEach(ctx, 2, func(ctx context.Context, i int) (err error) {
			if i == 0 {
				simRes, err = s.Simulate(ctx, bench, seed, scale, cfg)
			} else {
				pred, err = s.Predict(ctx, bench, seed, scale, cfg)
			}
			return err
		})
		if err != nil {
			return err
		}
		mainC, critC := pred.Main(), pred.Crit()
		e := func(p float64) string {
			return fmt.Sprintf("%+.1f%%", 100*(p-simRes.Cycles)/simRes.Cycles)
		}
		fmt.Print(textplot.Table(
			[]string{"predictor", "cycles", "error vs sim"},
			[][]string{
				{"simulation", fmt.Sprintf("%.0f", simRes.Cycles), ""},
				{"MAIN", fmt.Sprintf("%.0f", mainC), e(mainC)},
				{"CRIT", fmt.Sprintf("%.0f", critC), e(critC)},
				{"RPPM", fmt.Sprintf("%.0f", pred.Cycles), e(pred.Cycles)},
			}))
		return nil

	case "bottle":
		var (
			simRes *rppm.SimResult
			pred   *rppm.Prediction
		)
		err := s.ForEach(ctx, 2, func(ctx context.Context, i int) (err error) {
			if i == 0 {
				pred, err = s.Predict(ctx, bench, seed, scale, cfg)
			} else {
				simRes, err = s.Simulate(ctx, bench, seed, scale, cfg)
			}
			return err
		})
		if err != nil {
			return err
		}
		fmt.Print(textplot.SideBySideBottles(benchName,
			rppm.BottleGraphOf(pred), rppm.BottleGraphOfSim(simRes), 5))
		return nil
	}
	return fmt.Errorf("unknown command %q", cmd)
}
