// Command rppm-diag prints model-vs-simulation diagnosis tables for
// benchmarks (the default mode, `rppm-diag [BENCH...]`), inspects
// persisted profile files from a serve spill directory
// (`rppm-diag profile FILE.rpp...`), validates a whole spill
// directory's artifacts (`rppm-diag fsck DIR`), and summarizes a serve
// instance's recent request traces (`rppm-diag trace URL`).
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"rppm/internal/arch"
	"rppm/internal/core"
	"rppm/internal/interval"
	"rppm/internal/profilefmt"
	"rppm/internal/profiler"
	"rppm/internal/sim"
	"rppm/internal/workload"
)

const usage = `usage: rppm-diag [BENCH...]          diagnose benchmarks (default: hotspot nn lavaMD)
       rppm-diag profile FILE.rpp...  inspect persisted profiles
       rppm-diag fsck DIR             validate a serve spill directory
       rppm-diag trace URL            summarize a serve instance's request traces`

func main() {
	if len(os.Args) > 1 && os.Args[1] == "profile" {
		os.Exit(profileDump(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "fsck" {
		os.Exit(fsck(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		os.Exit(traceCmd(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the default mode: a model-vs-simulation diagnosis table per named
// benchmark (fixed-suite or registry entry) on the base config. It returns
// the process exit code: 2 with usage for a flag or an unknown name, before
// any benchmark runs; 1 when a run fails.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		args = []string{"hotspot", "nn", "lavaMD"}
	}
	bms := make([]workload.Benchmark, len(args))
	for i, name := range args {
		if strings.HasPrefix(name, "-") {
			fmt.Fprintln(stderr, usage)
			return 2
		}
		bm, err := workload.ResolveBenchmark(name)
		if err != nil {
			fmt.Fprintf(stderr, "rppm-diag: %v\n%s\n", err, usage)
			return 2
		}
		bms[i] = bm
	}
	for _, bm := range bms {
		if err := diagnose(stdout, bm); err != nil {
			fmt.Fprintf(stderr, "rppm-diag: %s: %v\n", bm.Name, err)
			return 1
		}
	}
	return 0
}

// diagScale is the workload scale of the default diagnosis mode.
const diagScale = 0.3

// diagnose profiles, simulates and predicts one benchmark at diagScale on
// the base config and prints the predicted and simulated CPI stacks of its
// first two threads, with the interval model's intermediate quantities.
func diagnose(w io.Writer, bm workload.Benchmark) error {
	cfg := arch.Base()
	prof, err := profiler.Run(bm.Build(1, diagScale), profiler.Options{})
	if err != nil {
		return err
	}
	simRes, err := sim.Run(bm.Build(1, diagScale), cfg)
	if err != nil {
		return err
	}
	pred, err := core.Predict(prof, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "=== %s: sim %.0f pred %.0f (err %+.1f%%)\n", bm.Name, simRes.Cycles, pred.Cycles,
		100*(pred.Cycles-simRes.Cycles)/simRes.Cycles)
	for t := 0; t < 2 && t < len(prof.Threads); t++ {
		ss := simRes.Threads[t].Stack
		ps := pred.Threads[t].Stack
		fmt.Fprintf(w, " t%d sim : N=%7d base=%8.0f br=%7.0f I$=%7.0f L2=%7.0f LLC=%7.0f dram=%8.0f sync=%8.0f\n",
			t, ss.Instr, ss.Base, ss.Branch, ss.ICache, ss.MemL2, ss.MemLLC, ss.MemDRAM, ss.Sync)
		fmt.Fprintf(w, "    pred: N=%7d base=%8.0f br=%7.0f I$=%7.0f L2=%7.0f LLC=%7.0f dram=%8.0f sync=%8.0f\n",
			ps.Instr, ps.Base, ps.Branch, ps.ICache, ps.MemL2, ps.MemLLC, ps.MemDRAM, ps.Sync)
		dg := rollUp(prof.Threads[t], &cfg)
		fmt.Fprintf(w, "    diag: Deff=%.2f cres=%.1f mL1D=%.3f mL2=%.3f mLLC=%.3f mL1I=%.3f MLP=%.2f(misses %d) brMiss=%.3f loads=%d\n",
			dg.Deff, dg.Cres, dg.MissRate.L1D, dg.MissRate.L2, dg.MissRate.LLC, dg.MissRate.L1I, dg.MLP, dg.MLPMisses, dg.BranchMiss, dg.Loads)
		if ss.MemDRAM > 0 {
			fmt.Fprintf(w, "    implied sim MLP ~= %.2f\n", dg.LLCMisses*float64(cfg.MemLatency)/ss.MemDRAM)
		}
	}
	return nil
}

// threadDiag is one thread's diagnosis rolled up over its epochs.
type threadDiag struct {
	// Deff is the instruction-weighted harmonic mean, so Instr/Deff is
	// the predicted Base; Cres is instruction-weighted. The data miss
	// rates are load-weighted, the L1I rate is weighted by instruction-line
	// accesses and the branch miss rate by branches. MLP is
	// LLCMisses·MemLatency over the predicted DRAM cycles (1 when none are
	// predicted), so dividing by it rebuilds the DRAM component.
	interval.Diagnosis
	Instr, Loads uint64
	LLCMisses    float64 // Σ loads·mLLC
}

// rollUp evaluates every epoch of a thread exactly as core.Predict's
// phase 1 does and rolls the per-epoch diagnoses up, so the result
// explains the thread's predicted stack rather than some other epoch's.
func rollUp(tp *profiler.ThreadProfile, cfg *arch.Config) threadDiag {
	var r threadDiag
	var base, dram, ilines, branches float64
	for _, ep := range tp.Epochs {
		if ep.Instr == 0 {
			continue // evaluates to an empty stack
		}
		st, d := interval.PredictEpochOpts(ep, cfg, interval.ModelOptions{})
		n, loads := float64(ep.Instr), float64(ep.Loads)
		il, br := float64(ep.ILineAccesses), float64(ep.Branch.Branches())
		r.Instr += ep.Instr
		r.Loads += ep.Loads
		base += st.Base
		dram += st.MemDRAM
		r.Cres += n * d.Cres
		r.MissRate.L1D += loads * d.MissRate.L1D
		r.MissRate.L2 += loads * d.MissRate.L2
		r.LLCMisses += loads * d.MissRate.LLC
		r.MissRate.L1I += il * d.MissRate.L1I
		ilines += il
		r.BranchMiss += br * d.BranchMiss
		branches += br
		r.MLPMisses += d.MLPMisses
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	loads := float64(r.Loads)
	r.Deff = ratio(float64(r.Instr), base)
	r.Cres = ratio(r.Cres, float64(r.Instr))
	r.MissRate.L1D = ratio(r.MissRate.L1D, loads)
	r.MissRate.L2 = ratio(r.MissRate.L2, loads)
	r.MissRate.LLC = ratio(r.LLCMisses, loads)
	r.MissRate.L1I = ratio(r.MissRate.L1I, ilines)
	r.BranchMiss = ratio(r.BranchMiss, branches)
	r.MLP = 1
	if dram > 0 {
		r.MLP = r.LLCMisses * float64(cfg.MemLatency) / dram
	}
	return r
}

// profileDump inspects persisted profile files (format v2, .rpp): header,
// checksum verdict, and per-thread epoch/histogram summaries. Returns
// the process exit code (non-zero when any file fails to decode).
func profileDump(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: rppm-diag profile FILE.rpp...")
		return 2
	}
	bad := 0
	for _, path := range paths {
		if err := dumpOne(path); err != nil {
			fmt.Printf("%s: %v\n", path, err)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func dumpOne(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	// ReadFile verifies magic, version and CRC before any structural
	// parsing, so reaching a profile means the checksum held.
	prof, opts, err := profilefmt.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: rppm profile v%d, %d bytes, CRC ok\n", path, profilefmt.FileVersion, fi.Size())
	fmt.Printf("  workload %q, %d threads, %d instructions\n",
		prof.Name, prof.NumThreads, prof.TotalInstr())
	fmt.Printf("  profiler options: window size %d, interval %d, coherence %v\n",
		opts.WindowSize, opts.WindowInterval, !opts.NoCoherence)
	cs, barriers, cv := prof.SyncCounts()
	fmt.Printf("  sync: %d critical sections, %d barrier arrivals, %d condvar events\n", cs, barriers, cv)
	for ti, th := range prof.Threads {
		windows := 0
		for _, e := range th.Epochs {
			windows += len(e.Windows)
		}
		agg := th.Aggregate()
		fmt.Printf("  thread %d: %d epochs, %d events, %d windows, %d instr\n",
			ti, len(th.Epochs), len(th.Events), windows, th.TotalInstr())
		for _, h := range []struct {
			name string
			rd   interface {
				Count() uint64
				InfiniteCount() uint64
				Mean() float64
				Max() int64
			}
		}{
			{"privateRD", agg.PrivateRD}, {"globalRD", agg.GlobalRD}, {"instrRD", agg.InstrRD},
		} {
			fmt.Printf("    %-9s n=%d inf=%d mean=%.1f max=%d\n",
				h.name, h.rd.Count(), h.rd.InfiniteCount(), h.rd.Mean(), h.rd.Max())
		}
	}
	return nil
}
