// The retained reference implementation of Compute: the walk as it was
// before its chain-depth buffer was pooled and sized to the sampled window
// (a slice grown from nil per call), with the LLC miss test passed in as a
// predicate. TestComputeMatchesReference requires Compute to reproduce it
// bit for bit.
package mlp

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/profiler"
	"rppm/internal/stats"
	"rppm/internal/workload"
)

func refCompute(windows []profiler.Window, robSize, mshrs int, isMiss func(rd int64) bool) (float64, int) {
	if robSize < 1 {
		robSize = 1
	}
	var weighted float64
	var totalMisses int

	// chainDepth[i] = length of the longest chain of dependent LLC misses
	// ending at instruction i (0 when i does not depend on any miss and is
	// not one itself).
	var chainDepth []int
	for wi := range windows {
		w := &windows[wi]
		n := w.Len()
		for start := 0; start < n; start += robSize {
			end := start + robSize
			if end > n {
				end = n
			}
			chainDepth = chainDepth[:0]
			misses := 0
			maxChain := 0
			for i := start; i < end; i++ {
				inherited := 0
				if p := w.Dep1[i]; p >= 0 && int(p) >= start {
					if d := chainDepth[int(p)-start]; d > inherited {
						inherited = d
					}
				}
				if p := w.Dep2[i]; p >= 0 && int(p) >= start {
					if d := chainDepth[int(p)-start]; d > inherited {
						inherited = d
					}
				}
				d := inherited
				if w.IsLoad[i] && w.GlobalRD[i] >= 0 && isMiss(w.GlobalRD[i]) {
					misses++
					d = inherited + 1
				}
				chainDepth = append(chainDepth, d)
				if d > maxChain {
					maxChain = d
				}
			}
			if misses == 0 {
				continue
			}
			mlp := float64(misses) / float64(maxChain)
			weighted += mlp * float64(misses)
			totalMisses += misses
		}
	}
	if totalMisses == 0 {
		return 1, 0
	}
	mlp := weighted / float64(totalMisses)
	if mlp < 1 {
		mlp = 1
	}
	if m := float64(mshrs); mlp > m {
		mlp = m
	}
	return mlp, totalMisses
}

// refMissPredicate is the LLC miss predicate the interval model passed to
// refCompute: infinite reuse distances always miss, finite ones miss from
// the critical distance on.
func refMissPredicate(crit float64) func(rd int64) bool {
	return func(rd int64) bool {
		return rd == stats.Infinite || float64(rd) >= crit
	}
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

// mlpResult is one Compute result.
type mlpResult struct {
	mlp    float64
	misses int
}

// TestComputeMatchesReference: Compute, given the LLC critical distance
// the interval model derives for each epoch, is bit-identical to the
// reference walk with the equivalent predicate, for every epoch of every
// registry entry on every SweepSpace(256) config. The configs run in
// order, shuffled, and spread over several goroutines, so state left in a
// reused buffer by one call cannot reach another's result.
func TestComputeMatchesReference(t *testing.T) {
	cfgs := arch.SweepSpace(256)
	rng := rand.New(rand.NewSource(1))
	registryEpochs(t, func(name string, epochs []*profiler.Epoch) {
		// crits[ci][ei] is the LLC critical distance for epoch ei under
		// config ci (0, every load a miss, for epochs without loads).
		crits := make([][]float64, len(cfgs))
		for ci := range cfgs {
			crits[ci] = make([]float64, len(epochs))
			for ei, ep := range epochs {
				if ep.Loads > 0 {
					crits[ci][ei] = ep.Models().Global.CriticalDistance(cfgs[ci].LLC.Lines())
				}
			}
		}
		// The reference reads only ROBSize, MSHRs and the LLC size (67
		// distinct triples in the sweep), so it runs once per triple.
		type refKey struct{ rob, mshrs, lines int }
		refs := map[refKey][]mlpResult{}
		want := make([][]mlpResult, len(cfgs))
		for ci := range cfgs {
			cfg := &cfgs[ci]
			k := refKey{cfg.ROBSize, cfg.MSHRs, cfg.LLC.Lines()}
			if refs[k] == nil {
				refs[k] = make([]mlpResult, len(epochs))
				for ei, ep := range epochs {
					r := &refs[k][ei]
					r.mlp, r.misses = refCompute(ep.Windows, cfg.ROBSize, cfg.MSHRs, refMissPredicate(crits[ci][ei]))
				}
			}
			want[ci] = refs[k]
		}
		check := func(order string, ci int) {
			cfg := &cfgs[ci]
			for ei, ep := range epochs {
				var got mlpResult
				got.mlp, got.misses = Compute(ep.Windows, cfg.ROBSize, cfg.MSHRs, crits[ci][ei])
				if w := want[ci][ei]; math.Float64bits(got.mlp) != math.Float64bits(w.mlp) || got.misses != w.misses {
					t.Errorf("%s %s epoch %d (%s): Compute = %+v, reference %+v",
						name, cfg.Name, ei, order, got, w)
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

// TestComputeAllocatesNothing: once its walk buffer is pooled, Compute
// allocates nothing per call, at any ROB size.
func TestComputeAllocatesNothing(t *testing.T) {
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
		crit := ep.Models().Global.CriticalDistance(cfg.LLC.Lines())
		Compute(ep.Windows, cfg.ROBSize, cfg.MSHRs, crit)
		if n := testing.AllocsPerRun(20, func() { Compute(ep.Windows, cfg.ROBSize, cfg.MSHRs, crit) }); n != 0 {
			t.Errorf("%s (ROB %d): Compute allocates %v times per call, want 0", cfg.Name, cfg.ROBSize, n)
		}
	}
}
