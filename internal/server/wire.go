// Package server implements `rppm serve`: a long-running HTTP/JSON daemon
// that keeps the expensive artifacts of the RPPM pipeline — recorded
// traces, microarchitecture-independent profiles, simulation results and
// predictions — resident in a memory-budgeted engine session, so repeated
// requests cost a cache lookup plus JSON encoding instead of a fresh
// record+profile pass per process.
//
// The serving layer is a thin shell over the library: every response is
// built by the same session methods the CLI and the experiment harnesses
// call, so a served prediction is bit-identical to an in-process one (the
// golden Figure 4 hash is enforced over HTTP in the tests).
package server

import (
	"context"
	"fmt"

	"rppm/internal/arch"
	"rppm/internal/core"
	"rppm/internal/engine"
	"rppm/internal/interval"
	"rppm/internal/sim"
	"rppm/internal/workload"
)

// StackBreakdown is one thread's CPI-stack cycle breakdown on the wire.
type StackBreakdown struct {
	Base    float64 `json:"base"`
	Branch  float64 `json:"branch"`
	ICache  float64 `json:"icache"`
	MemL2   float64 `json:"mem_l2"`
	MemLLC  float64 `json:"mem_llc"`
	MemDRAM float64 `json:"mem_dram"`
	Sync    float64 `json:"sync"`
}

func stackOut(st interval.Stack) StackBreakdown {
	return StackBreakdown{
		Base: st.Base, Branch: st.Branch, ICache: st.ICache,
		MemL2: st.MemL2, MemLLC: st.MemLLC, MemDRAM: st.MemDRAM, Sync: st.Sync,
	}
}

// ThreadOut is one thread's predicted behaviour on the wire.
type ThreadOut struct {
	Instr        uint64         `json:"instr"`
	ActiveCycles float64        `json:"active_cycles"`
	IdleCycles   float64        `json:"idle_cycles"`
	Stack        StackBreakdown `json:"stack"`
}

// PredictRequest selects one prediction. Config names a design-space
// point (`rppm list`); Baselines adds the MAIN/CRIT naive predictors;
// Simulate adds the cycle-level reference simulation.
type PredictRequest struct {
	Bench     string  `json:"bench"`
	Config    string  `json:"config"`
	Seed      uint64  `json:"seed"`
	Scale     float64 `json:"scale"`
	Baselines bool    `json:"baselines,omitempty"`
	Simulate  bool    `json:"simulate,omitempty"`
	// Debug adds the request's span tree (stage durations, cache
	// outcomes, bytes touched) to the response. Off, the response bytes
	// are identical to a server without tracing at all.
	Debug bool `json:"debug,omitempty"`
}

// PredictResponse is the full RPPM prediction for one (benchmark, seed,
// scale, config), with optional baselines and the simulator reference.
// Float fields round-trip exactly through JSON (shortest-representation
// encoding), so a served prediction hashes identically to an in-process
// one.
type PredictResponse struct {
	Bench        string      `json:"bench"`
	Config       string      `json:"config"`
	Seed         uint64      `json:"seed"`
	Scale        float64     `json:"scale"`
	Cycles       float64     `json:"cycles"`
	Seconds      float64     `json:"seconds"`
	Instructions uint64      `json:"instructions"`
	Threads      []ThreadOut `json:"threads"`

	MainCycles *float64 `json:"main_cycles,omitempty"`
	CritCycles *float64 `json:"crit_cycles,omitempty"`
	SimCycles  *float64 `json:"sim_cycles,omitempty"`
	SimSeconds *float64 `json:"sim_seconds,omitempty"`

	// Debug carries the span tree when the request asked for it;
	// omitted (and the bytes unchanged) otherwise.
	Debug *DebugTrace `json:"debug,omitempty"`
}

// SweepPoint is one design point of a sweep response, ranked by the caller.
type SweepPoint struct {
	Config           string  `json:"config"`
	FrequencyGHz     float64 `json:"frequency_ghz"`
	DispatchWidth    int     `json:"dispatch_width"`
	ROBSize          int     `json:"rob_size"`
	PredictedCycles  float64 `json:"predicted_cycles"`
	PredictedSeconds float64 `json:"predicted_seconds"`
	SimCycles        float64 `json:"sim_cycles"`
	SimSeconds       float64 `json:"sim_seconds"`
	// SignedError is (predicted-simulated)/simulated cycles.
	SignedError float64 `json:"signed_error"`
}

// SweepRequest simulates and predicts Configs design points (Table IV +
// derived variants) against one recorded trace. How many configurations
// each pool job steps together is chosen by the engine from the trace
// size and pool width; it never changes response bytes.
type SweepRequest struct {
	Bench   string  `json:"bench"`
	Configs int     `json:"configs"`
	Seed    uint64  `json:"seed"`
	Scale   float64 `json:"scale"`
	// Debug adds the request's span tree to the response (see
	// PredictRequest.Debug).
	Debug bool `json:"debug,omitempty"`
}

// SweepResponse is the design-space sweep outcome, in SweepSpace order.
type SweepResponse struct {
	Bench   string       `json:"bench"`
	Seed    uint64       `json:"seed"`
	Scale   float64      `json:"scale"`
	Points  []SweepPoint `json:"points"`
	Fastest string       `json:"fastest"` // lowest simulated time

	// Debug carries the span tree when the request asked for it.
	Debug *DebugTrace `json:"debug,omitempty"`
}

// BenchmarkInfo describes one built-in benchmark or registry entry.
type BenchmarkInfo struct {
	Name   string `json:"name"`
	Suite  string `json:"suite"`
	Input  string `json:"input"`
	Family string `json:"family,omitempty"` // synthetic family, empty for the fixed suite
}

// configByName resolves a design-point name against the Table IV space.
func configByName(name string) (arch.Config, error) {
	for _, c := range arch.DesignSpace() {
		if c.Name == name {
			return c, nil
		}
	}
	return arch.Config{}, fmt.Errorf("unknown config %q (have smallest, small, base, big, biggest)", name)
}

// BuildPredict computes a PredictResponse through the session — the single
// construction path shared by the HTTP handler and the CLI's -json mode,
// which is what makes `curl /v1/predict` and `rppm predict -json`
// byte-comparable. The prediction carries the MAIN/CRIT baselines; with
// Simulate it and the simulation fan out across the session's worker pool.
func BuildPredict(ctx context.Context, s *engine.Session, bm workload.Benchmark, cfg arch.Config, req PredictRequest) (*PredictResponse, error) {
	var (
		pred   *core.Prediction
		simRes *sim.Result
		err    error
	)
	if !req.Simulate {
		// The common warm-serving case: one cache lookup, no fan-out. The
		// baselines ride in the prediction.
		pred, err = s.Predict(ctx, bm, req.Seed, req.Scale, cfg)
	} else {
		err = s.ForEach(ctx, 2, func(ctx context.Context, i int) (err error) {
			if i == 0 {
				pred, err = s.Predict(ctx, bm, req.Seed, req.Scale, cfg)
			} else {
				simRes, err = s.Simulate(ctx, bm, req.Seed, req.Scale, cfg)
			}
			return err
		})
	}
	if err != nil {
		return nil, err
	}

	resp := &PredictResponse{
		Bench:        bm.Name,
		Config:       cfg.Name,
		Seed:         req.Seed,
		Scale:        req.Scale,
		Cycles:       pred.Cycles,
		Seconds:      pred.Seconds,
		Instructions: pred.TotalInstr(),
	}
	for t := range pred.Threads {
		tp := &pred.Threads[t]
		resp.Threads = append(resp.Threads, ThreadOut{
			Instr:        tp.Instr,
			ActiveCycles: tp.ActiveCycles,
			IdleCycles:   tp.IdleCycles,
			Stack:        stackOut(tp.Stack),
		})
	}
	if req.Baselines {
		mainC, critC := pred.Main(), pred.Crit()
		resp.MainCycles, resp.CritCycles = &mainC, &critC
	}
	if req.Simulate {
		resp.SimCycles, resp.SimSeconds = &simRes.Cycles, &simRes.Seconds
	}
	return resp, nil
}

// BuildSweep computes a SweepResponse through the session: one recorded
// trace, Configs replay-simulations plus model predictions, all fanned out
// over the worker pool in a single pass (the predictions ride in the same
// ForEach as the simulations instead of a serial post-pass). It is the
// single construction path shared by the HTTP handler and `rppm sweep
// -json`, which keeps the two byte-comparable.
func BuildSweep(ctx context.Context, s *engine.Session, bm workload.Benchmark, req SweepRequest) (*SweepResponse, error) {
	space := arch.SweepSpace(req.Configs)
	sims, preds, err := s.SimulatePredictSweep(ctx, bm, req.Seed, req.Scale, space)
	if err != nil {
		return nil, err
	}
	resp := &SweepResponse{Bench: bm.Name, Seed: req.Seed, Scale: req.Scale}
	best := 0
	for i, cfg := range space {
		pred := preds[i]
		if sims[i].Seconds < sims[best].Seconds {
			best = i
		}
		resp.Points = append(resp.Points, SweepPoint{
			Config:           cfg.Name,
			FrequencyGHz:     cfg.FrequencyGHz,
			DispatchWidth:    cfg.DispatchWidth,
			ROBSize:          cfg.ROBSize,
			PredictedCycles:  pred.Cycles,
			PredictedSeconds: pred.Seconds,
			SimCycles:        sims[i].Cycles,
			SimSeconds:       sims[i].Seconds,
			SignedError:      (pred.Cycles - sims[i].Cycles) / sims[i].Cycles,
		})
	}
	resp.Fastest = space[best].Name
	return resp, nil
}

// ListBenchmarks describes the built-in suite plus the registry's
// family-instantiated entries, so /v1/benchmarks advertises every name
// the predict/sweep endpoints resolve.
func ListBenchmarks() []BenchmarkInfo {
	var out []BenchmarkInfo
	for _, b := range workload.Suite() {
		out = append(out, BenchmarkInfo{Name: b.Name, Suite: b.Kind.String(), Input: b.Input})
	}
	if reg, err := workload.DefaultSuites(); err == nil {
		for _, e := range reg.Entries {
			if e.Family == "" {
				continue // fixed-suite entries are already listed above
			}
			if bm, err := e.Benchmark(); err == nil {
				out = append(out, BenchmarkInfo{
					Name: bm.Name, Suite: bm.Kind.String(), Input: bm.Input, Family: bm.Family,
				})
			}
		}
	}
	return out
}
