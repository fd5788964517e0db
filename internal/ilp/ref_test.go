// The retained reference implementation of the window walk: windowILP as
// it was before its chain-depth buffer was pooled and sized to the
// sampled window (a fresh ROB-sized slice per call, grown by append) and
// before its result was memoized per epoch under the clamped ROB.
// TestAnalyzeMatchesReference requires Analyze to reproduce it bit for bit.
package ilp

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/profilefmt"
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
	classLat := classLatencies(cfg.L1D.HitLatency)
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

// registryProfiles profiles every default-registry entry at its recorded
// seed and scale and calls fn with the entry's profile; -short skips the
// synthetic family entries.
func registryProfiles(t *testing.T, fn func(name string, p *profiler.Profile)) {
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
		fn(e.Name, p)
	}
}

func epochsOf(p *profiler.Profile) []*profiler.Epoch {
	var epochs []*profiler.Epoch
	for _, tp := range p.Threads {
		epochs = append(epochs, tp.Epochs...)
	}
	return epochs
}

// TestAnalyzeMatchesReference: Analyze is bit-identical to the reference
// walk for every epoch of every registry entry on every SweepSpace(256)
// config, on a memo miss, on a memo hit, and on a profile decoded through
// profilefmt. Misses run on fresh epochs that share the profiled windows.
// Hits run in order (the first config of each walk key stores it),
// shuffled, and spread over several goroutines, so state left in a reused
// buffer or memo entry by one call — a longer window, a larger ROB,
// another goroutine — cannot reach another's result. The decoded copy is
// first touched by several goroutines at once, which race to store its
// walks.
func TestAnalyzeMatchesReference(t *testing.T) {
	cfgs := arch.SweepSpace(256)
	rng := rand.New(rand.NewSource(1))
	registryProfiles(t, func(name string, p *profiler.Profile) {
		epochs := epochsOf(p)
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
		check := func(order string, epochs []*profiler.Epoch, ci int) {
			for ei, ep := range epochs {
				if order == "miss" {
					ep = &profiler.Epoch{Mix: ep.Mix, Windows: ep.Windows}
				}
				got, w := Analyze(ep, &cfgs[ci]), want[ci][ei]
				if math.Float64bits(got.Deff) != math.Float64bits(w.Deff) ||
					math.Float64bits(got.Cres) != math.Float64bits(w.Cres) {
					t.Errorf("%s %s epoch %d (%s): Analyze = %+v, reference %+v",
						name, cfgs[ci].Name, ei, order, got, w)
					return
				}
			}
		}
		concurrently := func(order string, epochs []*profiler.Epoch) {
			const workers = 4
			perm := rng.Perm(len(cfgs))
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := g; k < len(perm); k += workers {
						check(order, epochs, perm[k])
					}
				}(g)
			}
			wg.Wait()
		}
		for ci := range cfgs {
			check("miss", epochs, ci)
		}
		for ci := range cfgs {
			check("in order", epochs, ci)
		}
		for _, ci := range rng.Perm(len(cfgs)) {
			check("shuffled", epochs, ci)
		}
		concurrently("concurrent", epochs)

		data, err := profilefmt.Encode(p, profiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := profilefmt.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		concurrently("decoded", epochsOf(dec))
	})
}

// TestAnalyzePastMemoBound: walk keys past profiler.MaxILPWalks are still
// exact, and the epoch's memo stops growing at the bound. Each ROB runs at
// two L1D hit latencies, which the registry sweep never varies, so a memo
// that ignored the latency would answer one with the other's walk.
func TestAnalyzePastMemoBound(t *testing.T) {
	ep := streamclusterEpoch(t)
	var cfgs []arch.Config
	for i := 0; len(cfgs) < 2*profiler.MaxILPWalks; i++ {
		cfg := arch.Base()
		cfg.ROBSize = 8 + 8*(i/2)
		cfg.L1D.HitLatency += 2 * (i % 2)
		cfgs = append(cfgs, cfg)
	}
	for pass := 0; pass < 2; pass++ {
		for i := range cfgs {
			cfg := &cfgs[i]
			var w refWalk
			w.ipc, w.cres, w.haveILP, w.haveBranches = refWindowILP(ep.Windows, cfg)
			got, want := Analyze(ep, cfg), refAnalyze(w, ep.Mix, cfg)
			if math.Float64bits(got.Deff) != math.Float64bits(want.Deff) ||
				math.Float64bits(got.Cres) != math.Float64bits(want.Cres) {
				t.Fatalf("pass %d, ROB %d: Analyze = %+v, reference %+v", pass, cfg.ROBSize, got, want)
			}
		}
	}
	stored := 0
	for i := range cfgs {
		if _, ok := ep.ILPWalk(profiler.ILPWalkKey{ROB: cfgs[i].ROBSize, LoadLatency: cfgs[i].L1D.HitLatency}); ok {
			stored++
		}
	}
	if stored != profiler.MaxILPWalks {
		t.Fatalf("memo holds %d of %d distinct walk keys, want the bound %d", stored, len(cfgs), profiler.MaxILPWalks)
	}
}

// streamclusterEpoch is the aggregate epoch of streamcluster's main
// thread: windows of the full sampled length, no memo yet.
func streamclusterEpoch(t *testing.T) *profiler.Epoch {
	t.Helper()
	bm, err := workload.ByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.Run(bm.Build(1, 0.05), profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p.Threads[0].Aggregate()
}

// TestAnalyzeAllocatesNothing: Analyze allocates nothing per call, at any
// ROB size, on a memo hit and on a walk past the memo's bound, whose
// buffer is pooled.
func TestAnalyzeAllocatesNothing(t *testing.T) {
	ep := streamclusterEpoch(t)
	space := arch.SweepSpace(256)
	for _, cfg := range []arch.Config{space[0], space[255]} {
		Analyze(ep, &cfg)
		if n := testing.AllocsPerRun(20, func() { Analyze(ep, &cfg) }); n != 0 {
			t.Errorf("%s (ROB %d): Analyze allocates %v times per call on a memo hit, want 0", cfg.Name, cfg.ROBSize, n)
		}
	}
	cfg := arch.Base()
	for rob := 1; rob <= profiler.MaxILPWalks; rob++ {
		cfg.ROBSize = rob
		Analyze(ep, &cfg)
	}
	// A load latency no SweepSpace config has: these keys are not stored.
	cfg.L1D.HitLatency = 97
	longest := 0
	for i := range ep.Windows {
		longest = max(longest, ep.Windows[i].Len())
	}
	for _, rob := range []int{space[0].ROBSize, 4096} {
		cfg.ROBSize = rob
		Analyze(ep, &cfg)
		if _, ok := ep.ILPWalk(profiler.ILPWalkKey{ROB: min(rob, longest), LoadLatency: cfg.L1D.HitLatency}); ok {
			t.Fatalf("ROB %d: walk stored past the memo bound", rob)
		}
		if n := testing.AllocsPerRun(20, func() { Analyze(ep, &cfg) }); n != 0 {
			t.Errorf("ROB %d: Analyze allocates %v times per call past the memo bound, want 0", rob, n)
		}
	}
}
