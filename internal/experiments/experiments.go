// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables I–V, Figures 4–6) plus the ablation studies listed in
// DESIGN.md. Each experiment is a function returning a typed result with a
// String() rendering; the CLI (cmd/rppm-experiments) and the root benchmark
// suite (bench_test.go) both drive these functions, so printed reports and
// testing.B measurements come from the same code.
//
// All experiments schedule their per-benchmark work through
// internal/engine: jobs fan out across the engine's worker pool, and the
// session cache guarantees each (benchmark, seed, scale) is built, profiled
// and simulated exactly once per session regardless of how many experiments
// consume it. Pass a shared Session in Config to deduplicate across
// experiments (cmd/rppm-experiments does); leave it nil for a private
// session per experiment call.
package experiments

import (
	"context"
	"fmt"

	"rppm/internal/arch"
	"rppm/internal/engine"
	"rppm/internal/profiler"
	"rppm/internal/sim"
	"rppm/internal/workload"
)

// Config controls experiment fidelity and scheduling.
type Config struct {
	// Scale multiplies workload sizes; 1.0 is the full configured size.
	Scale float64
	// Seed drives workload generation.
	Seed uint64
	// Workers bounds the worker pool when the experiment has to create its
	// own session (Session == nil); <=0 selects GOMAXPROCS.
	Workers int
	// Session, when non-nil, supplies the profile/simulation cache and
	// worker pool. Sharing one session across experiments profiles and
	// simulates every benchmark exactly once for the whole evaluation.
	Session *engine.Session
}

// DefaultConfig runs the experiments at a fidelity that completes the whole
// evaluation in tens of seconds.
func DefaultConfig() Config { return Config{Scale: 0.3, Seed: 1} }

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// session returns the configured shared session, or a private one bound to
// a fresh engine. Even a private session deduplicates within one
// experiment (e.g. Figure 4's profile serves MAIN, CRIT and RPPM).
func (c Config) session() *engine.Session {
	if c.Session != nil {
		return c.Session
	}
	return engine.New(engine.Options{Workers: c.Workers}).NewSession()
}

// BenchRun bundles everything the figure experiments need for one
// benchmark: the microarchitecture-independent profile (collected once) and
// the golden-reference simulation on the base configuration.
type BenchRun struct {
	Bench   workload.Benchmark
	Profile *profiler.Profile
	Sim     *sim.Result
}

// runBenchS profiles and simulates one benchmark on the target
// configuration through the session cache; the workload is built once and
// shared by the profiler and the simulator.
func runBenchS(ctx context.Context, s *engine.Session, bm workload.Benchmark, cfg Config, target arch.Config) (*BenchRun, error) {
	prof, err := s.Profile(ctx, bm, cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", bm.Name, err)
	}
	simRes, err := s.Simulate(ctx, bm, cfg.Seed, cfg.Scale, target)
	if err != nil {
		return nil, fmt.Errorf("simulate %s: %w", bm.Name, err)
	}
	return &BenchRun{Bench: bm, Profile: prof, Sim: simRes}, nil
}

// runBench profiles and simulates one benchmark on the base configuration.
func runBench(bm workload.Benchmark, cfg Config, target arch.Config) (*BenchRun, error) {
	return runBenchS(context.Background(), cfg.session(), bm, cfg, target)
}

// predictAllS returns the MAIN, CRIT and RPPM predictions (in cycles) for a
// benchmark on the target configuration, using the session's cached profile.
func predictAllS(ctx context.Context, s *engine.Session, bm workload.Benchmark, cfg Config, target arch.Config) (mainC, critC, rppmC float64, err error) {
	pred, err := s.Predict(ctx, bm, cfg.Seed, cfg.Scale, target)
	if err != nil {
		return 0, 0, 0, err
	}
	return pred.Main(), pred.Crit(), pred.Cycles, nil
}

// signedError returns (predicted-actual)/actual.
func signedError(predicted, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return (predicted - actual) / actual
}

// profilerProfile aliases the profile type for the table helpers.
type profilerProfile = profiler.Profile
