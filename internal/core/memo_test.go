package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/profilefmt"
	"rppm/internal/profiler"
	"rppm/internal/stats"
	"rppm/internal/statstack"
	"rppm/internal/workload"
)

// decodedProfile profiles a benchmark and returns a fresh encode/decode
// copy of it, whose epochs have no StatStack models built yet.
func decodedProfile(t *testing.T, name string, scale float64) *profiler.Profile {
	t.Helper()
	p := profileOf(t, name, scale)
	data, err := profilefmt.Encode(p, profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := profilefmt.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestConcurrentPredictsShareModels: goroutines predicting one freshly
// decoded profile on distinct configs race to build the same epochs'
// StatStack models; every prediction must still equal the serial one.
func TestConcurrentPredictsShareModels(t *testing.T) {
	const workers = 8
	cfgs := arch.SweepSpace(workers)
	serialProf := decodedProfile(t, "streamcluster", 0.05)
	want := make([]*Prediction, workers)
	for i, cfg := range cfgs {
		var err error
		if want[i], err = Predict(serialProf, cfg); err != nil {
			t.Fatal(err)
		}
	}

	shared := decodedProfile(t, "streamcluster", 0.05)
	got := make([]*Prediction, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = Predict(shared, cfgs[i])
		}(i)
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("config %s: concurrent prediction differs from the serial one", cfgs[i].Name)
		}
	}
}

// TestAggregateAfterPredictions: aggregating a thread whose epochs'
// models were built by earlier predictions models the merged histograms,
// not any epoch's memo.
func TestAggregateAfterPredictions(t *testing.T) {
	prof := profileOf(t, "kmeans", 0.05)
	for _, cfg := range arch.SweepSpace(4) {
		if _, err := Predict(prof, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for tid, tp := range prof.Threads {
		agg := tp.Aggregate()
		var loads uint64
		for _, ep := range tp.Epochs {
			loads += ep.PrivateRD.Count()
		}
		if agg.PrivateRD.Count() != loads {
			t.Fatalf("thread %d: aggregate holds %d private samples, epochs %d", tid, agg.PrivateRD.Count(), loads)
		}
		if agg.Loads == 0 {
			continue
		}
		m := agg.Models()
		for _, c := range []struct {
			model *statstack.Model
			hist  *stats.Histogram
		}{{m.Private, agg.PrivateRD}, {m.Global, agg.GlobalRD}} {
			fresh := statstack.New(c.hist)
			for l := 1; l <= 1<<20; l *= 2 {
				got, want := c.model.MissRate(l), fresh.MissRate(l)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("thread %d: aggregate MissRate(%d) = %v, fresh build %v", tid, l, got, want)
				}
			}
		}
	}
}

// BenchmarkPredictSweep is the model alone: one resident profile predicted
// on 16 design points per iteration, profiling excluded. An untimed pass
// first builds the profile's per-epoch memos (StatStack models, ILP walks,
// branch snapshots), so every timed iteration reuses them, even at
// -benchtime 1x. BenchmarkPredictSweepFirstTouch measures sweeps that
// start with them empty.
func BenchmarkPredictSweep(b *testing.B) {
	bm, err := workload.ByName("streamcluster")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := profiler.Run(bm.Build(1, 0.05), profiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfgs := arch.SweepSpace(16)
	sweep := func() {
		for _, cfg := range cfgs {
			if _, err := Predict(prof, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	sweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cfgs))/1e6, "ms/config")
}

// BenchmarkPredictSweepFirstTouch is a design-space sweep's amortized
// cost per point: every iteration predicts a freshly decoded profile,
// whose per-epoch memos (StatStack models, ILP walks, branch snapshots)
// are empty, on all 256 SweepSpace points. Decoding is excluded.
func BenchmarkPredictSweepFirstTouch(b *testing.B) {
	bm, err := workload.ByName("streamcluster")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := profiler.Run(bm.Build(1, 0.05), profiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	data, err := profilefmt.Encode(prof, profiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfgs := arch.SweepSpace(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, _, err := profilefmt.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, cfg := range cfgs {
			if _, err := Predict(fresh, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cfgs))/1e6, "ms/config")
}

// TestSizeBytesStableAcrossPredictions: a profile's accounted size does
// not depend on whether predictions have built its per-epoch memos yet.
func TestSizeBytesStableAcrossPredictions(t *testing.T) {
	for _, name := range []string{"streamcluster", "kmeans"} {
		prof := decodedProfile(t, name, 0.05)
		var before []int64
		for _, tp := range prof.Threads {
			for _, ep := range tp.Epochs {
				before = append(before, ep.SizeBytes())
			}
		}
		total := prof.SizeBytes()
		for _, cfg := range arch.SweepSpace(16) {
			if _, err := Predict(prof, cfg); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		for tid, tp := range prof.Threads {
			for ei, ep := range tp.Epochs {
				if got := ep.SizeBytes(); got != before[i] {
					t.Fatalf("%s t%d e%d: SizeBytes %d before predictions, %d after", name, tid, ei, before[i], got)
				}
				i++
			}
		}
		if got := prof.SizeBytes(); got != total {
			t.Fatalf("%s: profile SizeBytes %d before predictions, %d after", name, total, got)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestPredictAllocations bounds core.Predict's allocations: the interval
// model's per-epoch walks reuse pooled buffers, so what remains is the
// prediction's own result and phase-2 state, not a count per epoch.
func TestPredictAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	prof := profileOf(t, "streamcluster", 0.05)
	space := arch.SweepSpace(256)
	for _, cfg := range []arch.Config{space[0], space[255]} {
		if _, err := Predict(prof, cfg); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(10, func() {
			if _, err := Predict(prof, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if n > 150 {
			t.Errorf("%s (ROB %d): Predict allocates %v times per call, want at most 150", cfg.Name, cfg.ROBSize, n)
		}
	}
}
