package workload

import (
	"fmt"
	"strings"
)

// This file defines the synthetic workload families: parameterized stress
// programs that exist to exercise subsystems the benchmark suite leaves
// cold — the coherence directory under skewed re-sharing (skewed-sharing), the MLP
// machinery (pointer-chase), condvar token flow (pipeline), and epoch
// profiling under regime changes (phase-change). Families are instantiated
// through the suite registry (suites.go): a registry entry names a family,
// overrides some parameters, and pins the result's golden-invariant hash.
//
// Every family is sized so that its default-parameter, scale-1.0 instance
// executes roughly 0.5–1M instructions — large enough that the config-batch
// gate (sim.RunBatch's batchMinInstrs) engages and the footprints overflow
// the simulated L2, small enough to run in CI at -short scales.

// Param describes one tunable of a workload family. Values are float64
// throughout (integer-natured parameters are rounded at use); bounds are
// inclusive and enforced by Family.Validate.
type Param struct {
	Name     string
	Default  float64
	Min, Max float64
	Doc      string
}

// Family is a parameterized synthetic workload generator. Instantiate one
// through Bench, which merges parameter overrides over the defaults and
// wraps the result in the same Benchmark shape the fixed suite uses, so
// engines, servers and tests treat family instances and benchmarks
// uniformly.
type Family struct {
	Name   string
	Doc    string
	Params []Param
	build  func(p map[string]float64, seed uint64, scale float64) *Program
}

// Defaults returns a fresh parameter map holding every parameter's default.
func (f Family) Defaults() map[string]float64 {
	m := make(map[string]float64, len(f.Params))
	for _, p := range f.Params {
		m[p.Name] = p.Default
	}
	return m
}

// param looks up a parameter declaration by name.
func (f Family) param(name string) (Param, bool) {
	for _, p := range f.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Validate checks overrides against the family's declared parameters:
// unknown names and out-of-range values are errors (never panics — the
// registry loader surfaces these to users).
func (f Family) Validate(overrides map[string]float64) error {
	for name, v := range overrides {
		p, ok := f.param(name)
		if !ok {
			names := make([]string, 0, len(f.Params))
			for _, q := range f.Params {
				names = append(names, q.Name)
			}
			return fmt.Errorf("workload: family %s has no parameter %q (have: %v)", f.Name, name, names)
		}
		if v < p.Min || v > p.Max {
			return fmt.Errorf("workload: family %s parameter %s = %v out of range [%v, %v]",
				f.Name, name, v, p.Min, p.Max)
		}
	}
	return nil
}

// Bench instantiates the family as a named Benchmark with the given
// parameter overrides (nil means all defaults). The benchmark's Input field
// carries the resolved parameter set, in declaration order, so listings
// show exactly what an instance runs.
func (f Family) Bench(name string, overrides map[string]float64) (Benchmark, error) {
	if err := f.Validate(overrides); err != nil {
		return Benchmark{}, err
	}
	merged := f.Defaults()
	for k, v := range overrides {
		merged[k] = v
	}
	tags := make([]string, 0, len(f.Params))
	for _, p := range f.Params {
		tags = append(tags, fmt.Sprintf("%s=%v", p.Name, merged[p.Name]))
	}
	return Benchmark{
		Name:   name,
		Kind:   Synthetic,
		Input:  strings.Join(tags, " "),
		Family: f.Name,
		Build: func(seed uint64, scale float64) *Program {
			return f.build(merged, seed, scale)
		},
	}, nil
}

// Families returns the synthetic family catalogue in its reporting order.
func Families() []Family {
	return []Family{
		skewedSharingFamily(),
		pointerChaseFamily(),
		pipelineFamily(),
		phaseChangeFamily(),
	}
}

// FamilyByName returns the named family or an error listing valid names.
func FamilyByName(name string) (Family, error) {
	for _, f := range Families() {
		if f.Name == name {
			return f, nil
		}
	}
	names := make([]string, 0, 4)
	for _, f := range Families() {
		names = append(names, f.Name)
	}
	return Family{}, fmt.Errorf("workload: unknown family %q (have: %v)", name, names)
}

// round converts an integer-natured parameter value.
func round(v float64) int {
	return int(v + 0.5)
}

// skewedSharingFamily: zipfian line popularity over both an L2-overflowing
// private footprint and a large shared region. The skew makes evicted lines
// come back, so the coherence directory sees lines re-read and re-written
// in a stable sharing state — a pattern uniform benchmark footprints
// almost never produce.
func skewedSharingFamily() Family {
	return Family{
		Name: "skewed-sharing",
		Doc: "zipf-popular lines over L2-overflowing private and shared regions; " +
			"re-references lines in stable sharing states through the coherence directory",
		Params: []Param{
			{Name: "theta", Default: 0.99, Min: 0.1, Max: 3, Doc: "zipf exponent for line popularity"},
			{Name: "priv_mb", Default: 8, Min: 1, Max: 64, Doc: "per-thread private footprint (MiB)"},
			{Name: "shared_mb", Default: 16, Min: 1, Max: 64, Doc: "shared footprint (MiB)"},
			{Name: "shared_frac", Default: 0.4, Min: 0, Max: 1, Doc: "fraction of refs to the shared region"},
			{Name: "rounds", Default: 10, Min: 1, Max: 64, Doc: "barrier-delimited rounds"},
		},
		build: func(p map[string]float64, seed uint64, scale float64) *Program {
			theta := p["theta"]
			b := NewBuilder("skewed-sharing", 4, seed).SetScale(scale)
			b.Compute(0, Block{N: 4000, Mix: MixInt(), PrivateBytes: 1 * MB, SeqFrac: 0.3})
			b.CreateWorkers()
			bar := b.NewObj()
			all := b.AllThreads()
			rounds := round(p["rounds"])
			for r := 0; r < rounds; r++ {
				for _, t := range all {
					b.Compute(t, Block{
						N: int(16000 * imbalance(t, r, 0.1)), Mix: MixInt(),
						PrivateBytes: uint64(p["priv_mb"]) * MB, PrivZipfTheta: theta,
						SharedBytes: uint64(p["shared_mb"]) * MB, SharedFrac: p["shared_frac"],
						SharedZipfTheta: theta,
						SeqFrac:         0.15, DepMean: 6, CodeID: 50,
					})
				}
				b.Barrier(bar, all...)
			}
			return b.Finish()
		},
	}
}

// pointerChaseFamily: irregular traversal — long load-load dependence
// chains over a large footprint with near-zero spatial locality and
// data-dependent branches. The anti-MLP workload: latency-bound where the
// fixed suite's streaming benchmarks are bandwidth-bound.
func pointerChaseFamily() Family {
	return Family{
		Name: "pointer-chase",
		Doc: "load-load dependence chains over a large low-locality footprint; " +
			"latency-bound, minimal MLP",
		Params: []Param{
			{Name: "chain_frac", Default: 0.6, Min: 0, Max: 1, Doc: "fraction of loads sourcing the previous load"},
			{Name: "footprint_mb", Default: 12, Min: 1, Max: 64, Doc: "per-thread footprint (MiB)"},
			{Name: "theta", Default: 0.6, Min: 0, Max: 3, Doc: "zipf exponent over nodes (0 = uniform)"},
			{Name: "dep_mean", Default: 4, Min: 1, Max: 32, Doc: "mean register dependence distance"},
			{Name: "rounds", Default: 8, Min: 1, Max: 64, Doc: "barrier-delimited rounds"},
		},
		build: func(p map[string]float64, seed uint64, scale float64) *Program {
			b := NewBuilder("pointer-chase", 4, seed).SetScale(scale)
			b.Compute(0, Block{N: 3000, Mix: MixInt(), PrivateBytes: 512 * KB})
			b.CreateWorkers()
			bar := b.NewObj()
			all := b.AllThreads()
			rounds := round(p["rounds"])
			for r := 0; r < rounds; r++ {
				for _, t := range all {
					b.Compute(t, Block{
						N: int(18000 * imbalance(t, r, 0.2)), Mix: MixInt(),
						PrivateBytes: uint64(p["footprint_mb"]) * MB, PrivZipfTheta: p["theta"],
						SeqFrac: 0.05, DepMean: p["dep_mean"], LoadChainFrac: p["chain_frac"],
						SharedBytes: 2 * MB, SharedFrac: 0.1,
						RandomFrac: 0.4, BranchBias: 0.8, CodeID: 51,
					})
				}
				b.Barrier(bar, all...)
			}
			return b.Finish()
		},
	}
}

// pipelineFamily: a producer-consumer chain — the main thread sources
// tokens, each worker stage consumes from its predecessor, transforms, and
// produces downstream; main drains the sink. Exercises condvar token flow
// at depth (the fixed suite only has single-stage hand-offs) and the
// sync-interval machinery on heavily fragmented threads.
func pipelineFamily() Family {
	return Family{
		Name: "pipeline",
		Doc: "main sources tokens through a chain of worker stages via condvars; " +
			"deep producer-consumer token flow",
		Params: []Param{
			{Name: "tokens", Default: 48, Min: 1, Max: 512, Doc: "tokens pushed through the pipeline"},
			{Name: "work", Default: 4200, Min: 100, Max: 100000, Doc: "instructions per token per stage"},
			{Name: "stage_spread", Default: 0.25, Min: 0, Max: 0.9, Doc: "work imbalance across stages"},
			{Name: "shared_frac", Default: 0.3, Min: 0, Max: 1, Doc: "fraction of refs to the shared token buffers"},
		},
		build: func(p map[string]float64, seed uint64, scale float64) *Program {
			b := NewBuilder("pipeline", 4, seed).SetScale(scale)
			b.Compute(0, Block{N: 1000, Mix: MixInt(), PrivateBytes: 256 * KB})
			b.CreateWorkers()
			stages := b.Workers()
			// queues[i] feeds stage i; the last queue is the drained sink.
			queues := make([]uint32, len(stages)+1)
			for i := range queues {
				queues[i] = b.NewObj()
			}
			tokens := round(p["tokens"])
			work := round(p["work"])
			spread := p["stage_spread"]
			for k := 0; k < tokens; k++ {
				b.Compute(0, Block{N: 800, Mix: MixInt(), PrivateBytes: 512 * KB,
					SharedBytes: 1 * MB, SharedFrac: p["shared_frac"], CodeID: 52})
				b.Produce(0, queues[0])
			}
			for i, t := range stages {
				// Stage work falls off along the chain so the first stage is
				// the bottleneck and downstream stages genuinely wait.
				n := int(float64(work) * (1 + spread*(1-2*float64(i)/float64(len(stages)-1))))
				mix := MixFP()
				if i%2 == 1 {
					mix = MixStream()
				}
				for k := 0; k < tokens; k++ {
					b.Consume(t, queues[i])
					b.Compute(t, Block{N: int(float64(n) * imbalance(t, k, 0.1)), Mix: mix,
						PrivateBytes: 2 * MB, SeqFrac: 0.5, DepMean: 6,
						SharedBytes: 1 * MB, SharedFrac: p["shared_frac"], CodeID: 53 + i})
					b.Produce(t, queues[i+1])
				}
			}
			for k := 0; k < tokens; k++ {
				b.Consume(0, queues[len(queues)-1])
			}
			return b.Finish()
		},
	}
}

// phaseChangeFamily: alternating compute-bound and memory-bound regimes,
// barrier-delimited. Each phase flips the instruction mix, footprint, and
// dependence structure, so per-epoch profiles differ sharply across
// adjacent epochs — the stress case for epoch-granular profiling and for
// any model that assumes stationarity.
func phaseChangeFamily() Family {
	return Family{
		Name: "phase-change",
		Doc: "alternating compute-bound and memory-bound barrier phases; " +
			"stresses epoch profiling under regime changes",
		Params: []Param{
			{Name: "phases", Default: 8, Min: 2, Max: 32, Doc: "number of alternating phases"},
			{Name: "phase_n", Default: 18000, Min: 500, Max: 100000, Doc: "per-thread instructions per phase"},
			{Name: "mem_mb", Default: 12, Min: 1, Max: 64, Doc: "memory-phase footprint (MiB)"},
			{Name: "theta", Default: 0.8, Min: 0, Max: 3, Doc: "zipf exponent in memory phases (0 = uniform)"},
		},
		build: func(p map[string]float64, seed uint64, scale float64) *Program {
			b := NewBuilder("phase-change", 4, seed).SetScale(scale)
			b.Compute(0, Block{N: 2000, Mix: MixInt(), PrivateBytes: 256 * KB})
			b.CreateWorkers()
			bar := b.NewObj()
			all := b.AllThreads()
			phases := round(p["phases"])
			phaseN := round(p["phase_n"])
			for ph := 0; ph < phases; ph++ {
				for _, t := range all {
					var blk Block
					if ph%2 == 0 {
						// Compute-bound: fp-heavy, cache-resident, short
						// dependences for high ILP.
						blk = Block{N: phaseN, Mix: MixFP(), PrivateBytes: 256 * KB,
							HotBytes: 32 * KB, HotFrac: 0.7, SeqFrac: 0.5, DepMean: 3, CodeID: 60}
					} else {
						// Memory-bound: streaming mix over an L2-overflowing
						// footprint with skewed re-references.
						blk = Block{N: phaseN, Mix: MixStream(),
							PrivateBytes: uint64(p["mem_mb"]) * MB, PrivZipfTheta: p["theta"],
							SeqFrac: 0.25, DepMean: 10,
							SharedBytes: 4 * MB, SharedFrac: 0.2, CodeID: 61}
					}
					blk.N = int(float64(blk.N) * imbalance(t, ph, 0.1))
					b.Compute(t, blk)
				}
				b.Barrier(bar, all...)
			}
			return b.Finish()
		},
	}
}
