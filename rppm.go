// Package rppm is the public API of the RPPM reproduction: rapid
// performance prediction of multithreaded workloads on multicore
// processors (De Pestel, Van den Steen, Akram, Eeckhout — ISPASS 2019).
//
// The typical flow mirrors the paper's Figure 1:
//
//	bench, _ := rppm.BenchmarkByName("streamcluster")
//	prog := bench.Build(1, 1.0)
//
//	profile, _ := rppm.Profile(prog)          // one-time profiling cost
//	for _, cfg := range rppm.DesignSpace() {  // many predictions per profile
//		pred, _ := rppm.Predict(profile, cfg)
//		fmt.Println(cfg.Name, pred.Seconds)
//	}
//
//	golden, _ := rppm.Simulate(prog, rppm.BaseConfig()) // cycle-level reference
//
// The profile contains only microarchitecture-independent characteristics
// (instruction mix, dependence micro-traces, branch statistics, per-thread
// and global reuse distances, the synchronization event stream), so a
// single profile serves predictions across pipeline widths, buffer sizes,
// cache hierarchies, branch predictors and clock frequencies.
package rppm

import (
	"context"
	"net/http"

	"rppm/internal/arch"
	"rppm/internal/bottlegraph"
	"rppm/internal/core"
	"rppm/internal/engine"
	"rppm/internal/interval"
	"rppm/internal/profiler"
	"rppm/internal/server"
	"rppm/internal/sim"
	"rppm/internal/trace"
	"rppm/internal/workload"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Config is a multicore processor configuration (pipeline, caches,
	// branch predictor, frequency).
	Config = arch.Config
	// Program is a restartable multithreaded workload. Each thread is a
	// trace.ThreadStream, so a custom Program's streams implement both Next
	// and NextBatch (the batch fill the profiler and simulator drain);
	// trace.SliceStream shows the pair over a fixed item slice.
	Program = trace.Program
	// WorkloadProfile is a microarchitecture-independent workload profile.
	WorkloadProfile = profiler.Profile
	// Prediction is RPPM's predicted execution behaviour.
	Prediction = core.Prediction
	// SimResult is the cycle-level simulator's measured behaviour.
	SimResult = sim.Result
	// CPIStack is a cycles-per-instruction breakdown.
	CPIStack = interval.Stack
	// Benchmark is a named buildable workload from the built-in suite.
	Benchmark = workload.Benchmark
	// BottleGraph visualizes per-thread criticality and parallelism.
	BottleGraph = bottlegraph.Graph
	// ProfilerOptions control micro-trace sampling and the profiling
	// ablations; the zero value selects the defaults.
	ProfilerOptions = profiler.Options

	// Engine owns a bounded worker pool for concurrent profiling,
	// simulation and prediction jobs.
	Engine = engine.Engine
	// EngineOptions configure NewEngine (parallelism, default profiler
	// options, progress sink).
	EngineOptions = engine.Options
	// Session is a keyed profile/simulation/prediction cache on top of an
	// Engine: each (benchmark, seed, scale) is built and profiled exactly
	// once per session, and each (benchmark, seed, scale, config) is
	// simulated and predicted exactly once, however many consumers ask
	// concurrently. All methods are safe for concurrent use.
	Session = engine.Session
	// EngineEvent reports one completed non-cached unit of work to the
	// progress sink.
	EngineEvent = engine.Event

	// RecordedProgram is a compact packed recording of a Program: capture
	// it once with Record, replay it any number of times (concurrently)
	// for a fraction of the generation cost. It implements Program.
	RecordedProgram = trace.Recorded

	// SessionOptions configure a session's resident cache: a memory
	// budget (size-accounted LRU over traces, profiles and results, with
	// in-flight pinning) and trace persistence hooks. Used via
	// Engine.NewSessionWith; the zero value is the classic unbounded
	// session.
	SessionOptions = engine.SessionOptions
	// SessionStats is a snapshot of a session's cache counters (hits,
	// misses, coalesced requests, evictions, resident bytes).
	SessionStats = engine.Stats

	// Client is a typed client for the `rppm serve` HTTP/JSON API
	// (endpoints /v1/predict, /v1/sweep, /v1/benchmarks, /v1/archs,
	// /healthz). Served predictions are bit-identical to in-process ones.
	Client = server.Client
	// PredictRequest selects one served prediction (benchmark, config,
	// seed, scale, optional MAIN/CRIT baselines and simulator reference).
	PredictRequest = server.PredictRequest
	// PredictResponse is the served prediction; float fields round-trip
	// bit-exactly through JSON.
	PredictResponse = server.PredictResponse
	// SweepRequest requests a served design-space sweep.
	SweepRequest = server.SweepRequest
	// SweepResponse is the served sweep outcome in SweepSpace order.
	SweepResponse = server.SweepResponse
	// SweepPoint is one design point of a sweep response.
	SweepPoint = server.SweepPoint
	// BenchmarkInfo describes one built-in benchmark as listed by the
	// /v1/benchmarks endpoint.
	BenchmarkInfo = server.BenchmarkInfo
)

// ServerConfig configures an embedded prediction server (see
// NewServerHandler): worker-pool bound, resident-cache memory budget,
// trace persistence directory and admission limit. The zero value serves
// with GOMAXPROCS workers and an unbounded cache.
type ServerConfig = server.Config

// NewServerHandler returns the `rppm serve` HTTP handler (endpoints
// /v1/predict, /v1/sweep, /v1/benchmarks, /v1/archs, /healthz, /metrics)
// backed by a fresh engine and resident session, for embedding the
// prediction service in another process or an httptest server. The
// standalone daemon (`rppm serve`, cmd/rppm-serve) wraps the same handler
// with flag parsing and graceful shutdown.
func NewServerHandler(cfg ServerConfig) http.Handler { return server.New(cfg).Handler() }

// NewClient creates a client for an `rppm serve` daemon at baseURL, e.g.
// "http://127.0.0.1:8344":
//
//	c := rppm.NewClient("http://127.0.0.1:8344")
//	resp, err := c.Predict(ctx, rppm.PredictRequest{
//		Bench: "kmeans", Config: "base", Seed: 1, Scale: 0.3,
//	})
//
// The server keeps recorded traces and profiles resident, so repeated
// predictions cost a cache lookup plus JSON encoding.
func NewClient(baseURL string) *Client { return server.NewClient(baseURL) }

// NewEngine creates a concurrent experiment engine. The zero options bound
// parallelism at GOMAXPROCS. Create a Session from it to get the shared
// cache:
//
//	eng := rppm.NewEngine(rppm.EngineOptions{Workers: 8})
//	s := eng.NewSession()
//	prof, _ := s.Profile(ctx, bench, seed, scale)     // profiled once
//	for _, cfg := range rppm.DesignSpace() {
//		pred, _ := s.Predict(ctx, bench, seed, scale, cfg)
//		...
//	}
//
// Parallel sessions return bit-identical results to serial ones: the
// engine parallelizes across independent jobs, never inside one.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// BaseConfig returns the paper's base configuration: a quad-core 2.5 GHz
// 4-wide out-of-order processor (Table IV, middle column).
func BaseConfig() Config { return arch.Base() }

// DesignSpace returns the five Table IV design points (smallest..biggest),
// all with equal peak operations per second.
func DesignSpace() []Config { return arch.DesignSpace() }

// SweepSpace returns n distinct validated configurations for design-space
// sweeps: the Table IV points followed by derived neighborhood variants.
func SweepSpace(n int) []Config { return arch.SweepSpace(n) }

// Record captures a program into its packed replayable form. Recording
// costs one generation pass; every replay after that decodes the packed
// stream at a fraction of the generation cost, and any number of replays
// may run concurrently. Engine sessions record automatically — use Record
// directly when driving Profile or Simulate with a custom workload you
// evaluate more than once.
func Record(p Program) (*RecordedProgram, error) { return trace.Record(p) }

// Sweep simulates bench on every configuration in cfgs through a private
// engine session: the workload's trace is generated and recorded once and
// every configuration replays it, fanning out across workers concurrent
// jobs (0 = GOMAXPROCS). Results are in cfgs order and bit-identical to
// simulating each configuration separately.
//
// For repeated sweeps, predictions, or sharing the recording with
// profiling, create an Engine and use Session.SimulateSweep directly.
func Sweep(ctx context.Context, bench Benchmark, seed uint64, scale float64, cfgs []Config, workers int) ([]*SimResult, error) {
	s := NewEngine(EngineOptions{Workers: workers}).NewSession()
	return s.SimulateSweep(ctx, bench, seed, scale, cfgs)
}

// Benchmarks returns the built-in 26-benchmark suite: 16 Rodinia-like
// (OpenMP-style, barrier-synchronized) and 10 Parsec-like (pthread-style)
// workloads.
func Benchmarks() []Benchmark { return workload.Suite() }

// BenchmarkByName looks up a built-in benchmark.
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// SuiteEntry is one declarative entry of the suite registry: a benchmark
// (built-in or family-instantiated) pinned to a seed, scale, parameter set
// and golden invariant hash.
type SuiteEntry = workload.SuiteEntry

// SuiteRegistry is a parsed suites.toml.
type SuiteRegistry = workload.SuiteRegistry

// WorkloadFamily is a parameterized synthetic workload generator.
type WorkloadFamily = workload.Family

// Suites returns the embedded default suite registry: every built-in
// benchmark plus one instance of each synthetic family, each pinned to a
// golden invariant hash (see internal/workload/suites.toml).
func Suites() (*SuiteRegistry, error) { return workload.DefaultSuites() }

// Families returns the synthetic workload families (skewed-sharing,
// pointer-chase, pipeline, phase-change).
func Families() []WorkloadFamily { return workload.Families() }

// ResolveBenchmark resolves a name against the built-in suite first and
// the suite registry second, so family-instantiated entries (e.g.
// "skewed-sharing") work anywhere a benchmark name is accepted.
func ResolveBenchmark(name string) (Benchmark, error) { return workload.ResolveBenchmark(name) }

// Profile collects a program's microarchitecture-independent profile: the
// one-time cost after which any number of configurations can be predicted.
func Profile(p Program) (*WorkloadProfile, error) {
	return profiler.Run(p, profiler.Options{})
}

// Predict runs the RPPM model: per-epoch interval-model predictions for
// every thread followed by symbolic execution of the synchronization
// events.
func Predict(prof *WorkloadProfile, cfg Config) (*Prediction, error) {
	return core.Predict(prof, cfg)
}

// PredictMain and PredictCrit are the paper's naive baselines: modeling
// only the main thread, or modeling all threads and taking the slowest.
// Both return predicted cycles.
func PredictMain(prof *WorkloadProfile, cfg Config) (float64, error) {
	return core.PredictMain(prof, cfg)
}

// PredictCrit is the CRIT baseline; see PredictMain.
func PredictCrit(prof *WorkloadProfile, cfg Config) (float64, error) {
	return core.PredictCrit(prof, cfg)
}

// Simulate runs the cycle-level multicore reference simulator (the
// repository's Sniper stand-in) on the program.
func Simulate(p Program, cfg Config) (*SimResult, error) {
	return sim.Run(p, cfg)
}

// BottleGraphOf builds a bottle graph from a prediction.
func BottleGraphOf(pred *Prediction) BottleGraph {
	ivs := make([][][2]float64, len(pred.Threads))
	for t := range pred.Threads {
		ivs[t] = pred.Threads[t].ActiveIntervals
	}
	return bottlegraph.Build(ivs, pred.Cycles)
}

// BottleGraphOfSim builds a bottle graph from a simulation result.
func BottleGraphOfSim(res *SimResult) BottleGraph {
	ivs := make([][][2]float64, len(res.Threads))
	for t := range res.Threads {
		ivs[t] = res.Threads[t].ActiveIntervals
	}
	return bottlegraph.Build(ivs, res.Cycles)
}
