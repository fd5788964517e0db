package profiler

import (
	"math"
	"sync"
	"testing"

	"rppm/internal/stats"
	"rppm/internal/statstack"
	"rppm/internal/trace"
	"rppm/internal/workload"
)

// forRegistryProfiles profiles default-registry entries at their recorded
// seed and scale — the golden scale the invariant hashes pin — and calls fn
// with each profile. With names it profiles only those entries; -short
// skips the large synthetic family entries. Profiles are released after
// fn returns, so the biggest fixed-suite ones are never resident together.
func forRegistryProfiles(t *testing.T, fn func(name string, p *Profile), names ...string) {
	t.Helper()
	reg, err := workload.DefaultSuites()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	seen := 0
	for _, e := range reg.Entries {
		if len(names) > 0 && !want[e.Name] {
			continue
		}
		if len(names) == 0 && testing.Short() && e.Family != "" {
			continue
		}
		bm, err := e.Benchmark()
		if err != nil {
			t.Fatal(err)
		}
		p, err := Run(bm.Build(e.Seed, e.Scale), Options{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fn(e.Name, p)
		seen++
	}
	if len(names) > 0 && seen != len(names) {
		t.Fatalf("profiled %d of the %d named registry entries", seen, len(names))
	}
}

// sameFloat reports bit-identity (so +Inf matches +Inf and 0 matches 0).
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestModelsMatchFreshBuild: the memoized StatStack models answer every
// query bit-identically to a model built fresh from the same histogram,
// and exist exactly where the interval model reads them.
func TestModelsMatchFreshBuild(t *testing.T) {
	var lines []int
	for l := 0; l <= 1<<22; l = 2*l + 1 {
		lines = append(lines, l, l+l/3)
	}
	reuse := []float64{0, 0.5, 1, 2, 63.5, 64, 71, 100, 1e3, 4095, 4096, 1e4, 1e5, 1e6, 1e8}

	forRegistryProfiles(t, func(name string, p *Profile) {
		epochs := 0
		for tid, tp := range p.Threads {
			for ei, ep := range tp.Epochs {
				m := ep.Models()
				if ep.Models() != m {
					t.Fatalf("%s t%d e%d: second Models call rebuilt the memo", name, tid, ei)
				}
				if (m.Private != nil) != (ep.Loads > 0) || (m.Global != nil) != (ep.Loads > 0) ||
					(m.Instr != nil) != (ep.ILineAccesses > 0) {
					t.Fatalf("%s t%d e%d: models built %v/%v/%v for %d loads, %d line accesses",
						name, tid, ei, m.Private != nil, m.Global != nil, m.Instr != nil, ep.Loads, ep.ILineAccesses)
				}
				for _, c := range []struct {
					what  string
					model *statstack.Model
					hist  *stats.Histogram
				}{{"private", m.Private, ep.PrivateRD}, {"global", m.Global, ep.GlobalRD}, {"instr", m.Instr, ep.InstrRD}} {
					if c.model == nil {
						continue
					}
					fresh := statstack.New(c.hist)
					for _, l := range lines {
						if got, want := c.model.MissRate(l), fresh.MissRate(l); !sameFloat(got, want) {
							t.Fatalf("%s t%d e%d %s: MissRate(%d) = %v, fresh %v", name, tid, ei, c.what, l, got, want)
						}
						if got, want := c.model.CriticalDistance(l), fresh.CriticalDistance(l); !sameFloat(got, want) {
							t.Fatalf("%s t%d e%d %s: CriticalDistance(%d) = %v, fresh %v", name, tid, ei, c.what, l, got, want)
						}
					}
					for _, r := range reuse {
						if got, want := c.model.StackDistance(r), fresh.StackDistance(r); !sameFloat(got, want) {
							t.Fatalf("%s t%d e%d %s: StackDistance(%v) = %v, fresh %v", name, tid, ei, c.what, r, got, want)
						}
					}
				}
				epochs++
			}
		}
		if epochs == 0 {
			t.Fatalf("%s: no epochs", name)
		}
	})
}

// TestModelSizeBytes: the size helper the budget accounting charges
// before a model exists matches the model New builds, for every histogram
// of a few registry profiles, and building the memo leaves the epoch's
// accounted size unchanged.
func TestModelSizeBytes(t *testing.T) {
	for _, h := range []*stats.Histogram{nil, stats.NewHistogram()} {
		if got, want := statstack.ModelSizeBytes(h), statstack.New(h).SizeBytes(); got != want {
			t.Fatalf("empty histogram: helper %d, built model %d", got, want)
		}
	}
	forRegistryProfiles(t, func(name string, p *Profile) {
		for _, tp := range p.Threads {
			for ei, ep := range tp.Epochs {
				for _, h := range []*stats.Histogram{ep.PrivateRD, ep.GlobalRD, ep.InstrRD} {
					if got, want := statstack.ModelSizeBytes(h), statstack.New(h).SizeBytes(); got != want {
						t.Fatalf("%s e%d: helper %d bytes, built model %d (max %d)", name, ei, got, want, h.Max())
					}
				}
				before := ep.SizeBytes()
				ep.Models()
				if after := ep.SizeBytes(); after != before {
					t.Fatalf("%s e%d: SizeBytes %d before the memo, %d after", name, ei, before, after)
				}
			}
		}
	}, "hotspot", "streamcluster", "pipeline")
}

// TestMergeDropsModels: merging into an epoch whose models and ILP walks
// were already built drops both memos, so the next read models the merged
// histograms and walks the merged windows.
func TestMergeDropsModels(t *testing.T) {
	p := profileBench(t, "srad", 0.05)
	var e, other *Epoch
	for _, ep := range p.Threads[0].Epochs {
		switch {
		case ep.Loads == 0 || ep.ILineAccesses == 0:
		case e == nil:
			e = ep
		case other == nil:
			other = ep
		}
	}
	if other == nil {
		t.Fatal("srad thread 0 has fewer than two epochs with loads")
	}
	stale := e.Models()
	k := ILPWalkKey{ROB: 128, LoadLatency: 3}
	e.StoreILPWalk(k, ILPWalk{IPC: 2, HaveILP: true})
	e.Merge(other)
	m := e.Models()
	if m == stale {
		t.Fatal("Merge kept the models of the unmerged histograms")
	}
	if w, ok := e.ILPWalk(k); ok {
		t.Fatalf("Merge kept the walk %+v of the unmerged windows", w)
	}
	for _, c := range []struct {
		model *statstack.Model
		hist  *stats.Histogram
	}{{m.Private, e.PrivateRD}, {m.Global, e.GlobalRD}, {m.Instr, e.InstrRD}} {
		fresh := statstack.New(c.hist)
		for l := 1; l <= 1<<20; l *= 4 {
			if got, want := c.model.MissRate(l), fresh.MissRate(l); !sameFloat(got, want) {
				t.Fatalf("merged MissRate(%d) = %v, fresh build of the merged histogram %v", l, got, want)
			}
		}
	}
}

// TestILPWalkMemoBound: the walk memo answers every stored key, stores at
// most MaxILPWalks keys (later stores are dropped, so the table stops
// growing), keeps the first store of a key, and works under concurrent
// stores of overlapping keys.
func TestILPWalkMemoBound(t *testing.T) {
	walkOf := func(k ILPWalkKey) ILPWalk {
		return ILPWalk{IPC: float64(k.ROB), Cres: float64(k.LoadLatency), HaveILP: true, HaveBranches: k.ROB%2 == 0}
	}
	keys := make([]ILPWalkKey, 2*MaxILPWalks)
	for i := range keys {
		keys[i] = ILPWalkKey{ROB: 32 + i, LoadLatency: 3 + i%3}
	}
	e := NewEpoch()
	if _, ok := e.ILPWalk(keys[0]); ok {
		t.Fatal("fresh epoch answers a walk")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range keys[:MaxILPWalks] {
				e.StoreILPWalk(k, walkOf(k))
				e.ILPWalk(k)
			}
		}()
	}
	wg.Wait()
	e.StoreILPWalk(keys[0], ILPWalk{})
	for _, k := range keys[MaxILPWalks:] {
		e.StoreILPWalk(k, walkOf(k))
	}
	for i, k := range keys {
		got, ok := e.ILPWalk(k)
		if stored := i < MaxILPWalks; ok != stored || (ok && got != walkOf(k)) {
			t.Fatalf("key %d %+v: memo answers %+v, %v; want stored=%v %+v", i, k, got, ok, stored, walkOf(k))
		}
	}
}

// TestWindowDependencesPointBackward: the profiler only ever emits known
// instruction classes and producers before their consumers (or -1 for a
// producer outside the window) — the invariant the ILP and MLP models
// index by, and the profile codec enforces on files.
func TestWindowDependencesPointBackward(t *testing.T) {
	forRegistryProfiles(t, func(name string, p *Profile) {
		windows := 0
		for tid, tp := range p.Threads {
			for ei, ep := range tp.Epochs {
				for wi := range ep.Windows {
					w := &ep.Windows[wi]
					for i, c := range w.Classes {
						if int(c) >= trace.NumClasses {
							t.Fatalf("%s t%d e%d w%d: instruction %d has class %d", name, tid, ei, wi, i, c)
						}
						for _, d := range []int16{w.Dep1[i], w.Dep2[i]} {
							if d < -1 || int(d) >= i {
								t.Fatalf("%s t%d e%d w%d: instruction %d names producer %d", name, tid, ei, wi, i, d)
							}
						}
					}
					windows++
				}
			}
		}
		if windows == 0 {
			t.Fatalf("%s: no sampled windows", name)
		}
	})
}
