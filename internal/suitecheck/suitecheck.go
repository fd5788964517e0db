// Package suitecheck is the golden-invariant harness behind the suite
// registry: it runs one registry entry (or any benchmark) through the full
// profile→simulate→predict pipeline in every execution mode the engine
// supports — serial generation, trace replay, config-batched stepping, and
// the parallel session sweep — asserts the modes are bit-identical, and
// hashes the serial outputs into the invariant that suites.toml pins.
//
// It generalizes TestGoldenFigure4Determinism from one experiment to every
// registry entry: the invariant covers the simulated cycle results (per
// thread, CPI stack included) and the RPPM/MAIN/CRIT predictions on two
// design points, so any model change, float reordering, or
// scheduling-dependent result shows up as a hash mismatch on the entry
// that exposed it.
package suitecheck

import (
	"context"
	"crypto/sha256"
	"fmt"

	"rppm/internal/arch"
	"rppm/internal/core"
	"rppm/internal/engine"
	"rppm/internal/profiler"
	"rppm/internal/sim"
	"rppm/internal/trace"
	"rppm/internal/workload"
)

// Configs returns the design points the invariant covers: the paper's base
// configuration plus the smallest Table IV point, so the batched mode
// below exercises genuine config-batched stepping (two distinct simulator
// states interleaved over one trace) rather than a degenerate width-1
// batch.
func Configs() []arch.Config {
	ds := arch.DesignSpace()
	return []arch.Config{ds[2], ds[0]} // base, smallest
}

// Report is the outcome of checking one entry.
type Report struct {
	Name   string
	Seed   uint64
	Scale  float64
	Instrs uint64 // recorded dynamic instructions
	Hash   string // the golden invariant (serial outputs)
}

// hashResult digests every model-visible field of a simulation result:
// program cycles and per-thread instruction counts, finish/active/idle
// cycles, the full CPI stack, and the active intervals. The directory
// probe counter is deliberately excluded: it is an implementation
// diagnostic, free to change with the hierarchy's internals.
func hashResult(r *sim.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v|%v\n", r.Cycles, r.Seconds)
	for i := range r.Threads {
		t := &r.Threads[i]
		fmt.Fprintf(h, "t%d|%d|%v|%v|%v|%v|%d\n",
			i, t.Instr, t.FinishCycle, t.ActiveCycles, t.IdleCycles, t.Stack, len(t.ActiveIntervals))
		for _, iv := range t.ActiveIntervals {
			fmt.Fprintf(h, "%v|%v\n", iv[0], iv[1])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Check runs bm at (seed, scale) through all four execution modes,
// verifies bit-identity, and returns the report with the invariant hash.
// A mode divergence is an error naming the mode and configuration.
func Check(bm workload.Benchmark, seed uint64, scale float64) (*Report, error) {
	prog := bm.Build(seed, scale)
	if err := workload.Validate(prog); err != nil {
		return nil, fmt.Errorf("suitecheck %s: %w", bm.Name, err)
	}
	rec, err := trace.Record(prog)
	if err != nil {
		return nil, fmt.Errorf("suitecheck %s: record: %w", bm.Name, err)
	}
	cfgs := Configs()

	// Mode 1 — serial: generation-path simulation straight off the
	// program's prng-driven streams. This is the reference everything else
	// must match.
	serial := make([]*sim.Result, len(cfgs))
	serialHash := make([]string, len(cfgs))
	for i := range cfgs {
		res, err := sim.Run(prog, cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("suitecheck %s: serial %s: %w", bm.Name, cfgs[i].Name, err)
		}
		serial[i] = res
		serialHash[i] = hashResult(res)
	}

	// Mode 2 — replayed-from-trace: cursor replay of the recording.
	for i := range cfgs {
		res, err := sim.Run(rec, cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("suitecheck %s: replay %s: %w", bm.Name, cfgs[i].Name, err)
		}
		if hashResult(res) != serialHash[i] {
			return nil, fmt.Errorf("suitecheck %s: replayed run diverges from serial on %s", bm.Name, cfgs[i].Name)
		}
	}

	// Mode 3 — config-batched: both configurations interleaved over the
	// decoded columns in one RunBatch pass.
	batched, err := sim.RunBatch(trace.Decode(rec), cfgs)
	if err != nil {
		return nil, fmt.Errorf("suitecheck %s: batched: %w", bm.Name, err)
	}
	for i := range cfgs {
		if hashResult(batched[i]) != serialHash[i] {
			return nil, fmt.Errorf("suitecheck %s: batched run diverges from serial on %s", bm.Name, cfgs[i].Name)
		}
	}

	// Serial predictions: profile once off the recording, predict each
	// design point with the default model.
	prof, err := profiler.Run(rec, profiler.Options{})
	if err != nil {
		return nil, fmt.Errorf("suitecheck %s: profile: %w", bm.Name, err)
	}
	preds := make([]*core.Prediction, len(cfgs))
	for i := range cfgs {
		if preds[i], err = core.Predict(prof, cfgs[i]); err != nil {
			return nil, fmt.Errorf("suitecheck %s: predict %s: %w", bm.Name, cfgs[i].Name, err)
		}
	}

	// Mode 4 — parallel: a fresh multi-worker session sweep (the serving
	// and experiment path: shared decode, config batching, concurrent
	// predictions) must reproduce the serial simulations and predictions.
	sess := engine.New(engine.Options{Workers: 8}).NewSession()
	psims, ppreds, err := sess.SimulatePredictSweep(context.Background(), bm, seed, scale, cfgs)
	if err != nil {
		return nil, fmt.Errorf("suitecheck %s: parallel sweep: %w", bm.Name, err)
	}
	for i := range cfgs {
		if hashResult(psims[i]) != serialHash[i] {
			return nil, fmt.Errorf("suitecheck %s: parallel sweep diverges from serial on %s", bm.Name, cfgs[i].Name)
		}
		if ppreds[i].Cycles != preds[i].Cycles {
			return nil, fmt.Errorf("suitecheck %s: parallel prediction %v diverges from serial %v on %s",
				bm.Name, ppreds[i].Cycles, preds[i].Cycles, cfgs[i].Name)
		}
	}

	// The invariant: serial simulations plus all three predictions per
	// design point, prefixed with the workload identity.
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%v|%d\n", bm.Name, seed, scale, rec.Instructions())
	for i := range cfgs {
		fmt.Fprintf(h, "cfg:%s|%s\n", cfgs[i].Name, serialHash[i])
		fmt.Fprintf(h, "pred:%s|%v|%v|%v\n", cfgs[i].Name, preds[i].Cycles, preds[i].Main(), preds[i].Crit())
	}
	return &Report{
		Name:   bm.Name,
		Seed:   seed,
		Scale:  scale,
		Instrs: rec.Instructions(),
		Hash:   fmt.Sprintf("%x", h.Sum(nil)),
	}, nil
}

// CheckEntry resolves and checks one registry entry at its recorded seed
// and scale, and verifies the computed invariant against the pinned hash.
// The report is returned even on a hash mismatch, so callers can print the
// computed value (regenerating the registry after an intentional model
// change).
func CheckEntry(e workload.SuiteEntry) (*Report, error) {
	bm, err := e.Benchmark()
	if err != nil {
		return nil, err
	}
	rep, err := Check(bm, e.Seed, e.Scale)
	if err != nil {
		return nil, err
	}
	if rep.Hash != e.Invariant {
		return rep, fmt.Errorf("suitecheck %s: invariant hash %s does not match registry %s",
			e.Name, rep.Hash, e.Invariant)
	}
	return rep, nil
}
