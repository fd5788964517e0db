package server

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"rppm/internal/workload"
)

// goldenFigure4 is the same pre-optimization SHA-256 enforced by
// internal/experiments' TestGoldenFigure4Determinism (Scale 0.05, Seed 1):
// the serving layer must reproduce the whole Figure 4 row set over HTTP
// bit-for-bit, proving no float survives the JSON wire format altered.
// Re-pinned with the experiments constant when Parsec's streamcluster got
// its own name: over HTTP the shared name always resolved to Rodinia's
// program, so the old hash encoded Rodinia's row twice.
const goldenFigure4 = "58fbb128ecb433830e3b516b2880b973278889d72c57d5968b16feacba6f63c2"

// TestGoldenFigure4OverHTTP rebuilds Figure 4 purely from /v1/predict
// responses (RPPM + MAIN/CRIT baselines + simulator reference per
// benchmark) and checks the golden hash. JSON encodes float64 with
// shortest round-trip formatting, so every served value decodes to the
// identical bits the library computed.
func TestGoldenFigure4OverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("golden Figure 4 over HTTP is a full (reduced-scale) evaluation")
	}
	_, c := newTestServer(t, Config{Workers: 8})
	ctx := context.Background()
	suite := workload.Suite()

	type row struct {
		name                   string
		kind                   workload.SuiteKind
		main, crit, rppm, simC float64
	}
	rows := make([]row, len(suite))
	var wg sync.WaitGroup
	errs := make([]error, len(suite))
	for i, bm := range suite {
		wg.Add(1)
		go func(i int, bm workload.Benchmark) {
			defer wg.Done()
			resp, err := c.Predict(ctx, PredictRequest{
				Bench: bm.Name, Config: "base", Seed: 1, Scale: 0.05,
				Baselines: true, Simulate: true,
			})
			if err != nil {
				errs[i] = err
				return
			}
			sim := *resp.SimCycles
			signed := func(p float64) float64 { return (p - sim) / sim }
			rows[i] = row{
				name: bm.Name, kind: bm.Kind,
				main: signed(*resp.MainCycles),
				crit: signed(*resp.CritCycles),
				rppm: signed(resp.Cycles),
				simC: sim,
			}
		}(i, bm)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", suite[i].Name, err)
		}
	}

	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%s|%d|%v|%v|%v|%v\n", r.name, r.kind, r.main, r.crit, r.rppm, r.simC)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenFigure4 {
		t.Errorf("Figure 4 hash over HTTP = %s, want golden %s", got, goldenFigure4)
	}
}
