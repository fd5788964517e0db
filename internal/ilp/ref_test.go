// The retained reference implementation of the window walk: windowILP as
// it was before its chain-depth buffer was pooled and sized to the
// sampled window (a fresh ROB-sized slice per call, grown by append).
// TestAnalyzeMatchesReference requires Analyze to reproduce it bit for bit.
package ilp

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/profiler"
	"rppm/internal/trace"
	"rppm/internal/workload"
)

// refWalk is refWindowILP's result.
type refWalk struct {
	ipc, cres             float64
	haveILP, haveBranches bool
}

// refAnalyze is Analyze over a refWindowILP result.
func refAnalyze(walk refWalk, mix [trace.NumClasses]uint64, cfg *arch.Config) Result {
	res := Result{
		Deff: float64(cfg.DispatchWidth),
		Cres: float64(cfg.L1D.HitLatency), // floor when no branches observed
	}

	if walk.haveILP && walk.ipc < res.Deff {
		res.Deff = walk.ipc
	}
	if walk.haveBranches {
		res.Cres = walk.cres
	}

	if fu := fuLimit(mix, cfg); fu < res.Deff {
		res.Deff = fu
	}
	if res.Deff < 0.1 {
		res.Deff = 0.1
	}
	return res
}

func refWindowILP(windows []profiler.Window, cfg *arch.Config) (ipc, cres float64, haveILP, haveBranches bool) {
	classLat := classLatencies(cfg)
	rob := cfg.ROBSize
	var cycleSum, instrSum float64
	var branchDepthSum float64
	var branchCount float64

	depth := make([]float64, 0, rob)
	for wi := range windows {
		w := &windows[wi]
		n := w.Len()
		for start := 0; start < n; start += rob {
			end := start + rob
			if end > n {
				end = n
			}
			depth = depth[:0]
			chunkCrit := 0.0
			for i := start; i < end; i++ {
				lat := classLat[w.Classes[i]]
				d := lat
				if p := w.Dep1[i]; p >= 0 && int(p) >= start {
					if v := depth[int(p)-start] + lat; v > d {
						d = v
					}
				}
				if p := w.Dep2[i]; p >= 0 && int(p) >= start {
					if v := depth[int(p)-start] + lat; v > d {
						d = v
					}
				}
				depth = append(depth, d)
				if d > chunkCrit {
					chunkCrit = d
				}
				if w.Classes[i] == trace.Branch {
					// Resolution time: the chain depth up to and including
					// the branch's own execution.
					branchDepthSum += d
					branchCount++
				}
			}
			chunkLen := float64(end - start)
			if chunkLen < 8 {
				// Too small to estimate steady-state ILP.
				continue
			}
			cycleSum += chunkCrit
			instrSum += chunkLen
		}
	}
	if instrSum > 0 && cycleSum > 0 {
		ipc = instrSum / cycleSum
		haveILP = true
	}
	if branchCount > 0 {
		cres = branchDepthSum / branchCount
		haveBranches = true
	}
	return
}

// registryEpochs profiles every default-registry entry at its recorded
// seed and scale and calls fn with the entry's epochs; -short skips the
// synthetic family entries.
func registryEpochs(t *testing.T, fn func(name string, epochs []*profiler.Epoch)) {
	t.Helper()
	reg, err := workload.DefaultSuites()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range reg.Entries {
		if testing.Short() && e.Family != "" {
			continue
		}
		bm, err := e.Benchmark()
		if err != nil {
			t.Fatal(err)
		}
		p, err := profiler.Run(bm.Build(e.Seed, e.Scale), profiler.Options{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		var epochs []*profiler.Epoch
		for _, tp := range p.Threads {
			epochs = append(epochs, tp.Epochs...)
		}
		fn(e.Name, epochs)
	}
}

// TestAnalyzeMatchesReference: Analyze is bit-identical to the reference
// walk for every epoch of every registry entry on every SweepSpace(256)
// config. The configs run in order, shuffled, and spread over several
// goroutines, so state left in a reused buffer by one call — a longer
// window, a larger ROB, another goroutine — cannot reach another's result.
func TestAnalyzeMatchesReference(t *testing.T) {
	cfgs := arch.SweepSpace(256)
	rng := rand.New(rand.NewSource(1))
	registryEpochs(t, func(name string, epochs []*profiler.Epoch) {
		// The reference walk reads only ROBSize and L1D.HitLatency (29
		// distinct pairs in the sweep), so it runs once per pair.
		type walkKey struct{ rob, lat int }
		walks := map[walkKey][]refWalk{}
		want := make([][]Result, len(cfgs))
		for ci := range cfgs {
			cfg := &cfgs[ci]
			k := walkKey{cfg.ROBSize, cfg.L1D.HitLatency}
			if walks[k] == nil {
				walks[k] = make([]refWalk, len(epochs))
				for ei, ep := range epochs {
					w := &walks[k][ei]
					w.ipc, w.cres, w.haveILP, w.haveBranches = refWindowILP(ep.Windows, cfg)
				}
			}
			want[ci] = make([]Result, len(epochs))
			for ei, ep := range epochs {
				want[ci][ei] = refAnalyze(walks[k][ei], ep.Mix, cfg)
			}
		}
		check := func(order string, ci int) {
			for ei, ep := range epochs {
				got, w := Analyze(ep.Windows, ep.Mix, &cfgs[ci]), want[ci][ei]
				if math.Float64bits(got.Deff) != math.Float64bits(w.Deff) ||
					math.Float64bits(got.Cres) != math.Float64bits(w.Cres) {
					t.Errorf("%s %s epoch %d (%s): Analyze = %+v, reference %+v",
						name, cfgs[ci].Name, ei, order, got, w)
					return
				}
			}
		}
		for ci := range cfgs {
			check("in order", ci)
		}
		for _, ci := range rng.Perm(len(cfgs)) {
			check("shuffled", ci)
		}
		const workers = 4
		perm := rng.Perm(len(cfgs))
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := g; k < len(perm); k += workers {
					check("concurrent", perm[k])
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestAnalyzeAllocatesNothing: once its walk buffer is pooled, Analyze
// allocates nothing per call, at any ROB size.
func TestAnalyzeAllocatesNothing(t *testing.T) {
	bm, err := workload.ByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.Run(bm.Build(1, 0.05), profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ep := p.Threads[0].Aggregate()
	space := arch.SweepSpace(256)
	for _, cfg := range []arch.Config{space[0], space[255]} {
		Analyze(ep.Windows, ep.Mix, &cfg)
		if n := testing.AllocsPerRun(20, func() { Analyze(ep.Windows, ep.Mix, &cfg) }); n != 0 {
			t.Errorf("%s (ROB %d): Analyze allocates %v times per call, want 0", cfg.Name, cfg.ROBSize, n)
		}
	}
}
