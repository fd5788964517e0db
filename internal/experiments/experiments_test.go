package experiments

import (
	"math"
	"strings"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/engine"
	"rppm/internal/workload"
)

// testSession is shared by every test in the package: each (benchmark,
// seed, scale) is profiled and simulated once for the whole suite, however
// many tables and figures consume it.
var testSession = engine.New(engine.Options{}).NewSession()

// testCfg keeps the experiment tests fast.
var testCfg = Config{Scale: 0.06, Seed: 1, Session: testSession}

// suiteCfg returns the shared test configuration, scaled further down under
// -short; the default run keeps full test fidelity.
func suiteCfg(t *testing.T) Config {
	t.Helper()
	c := testCfg
	if testing.Short() {
		c.Scale = 0.03
	}
	return c
}

func TestTableIMatchesClosedForm(t *testing.T) {
	res := TableI(20000, 10, 1)
	// The paper's Table I values (e·(n−1)/(n+1)): spot-check the corners.
	want := map[[2]int]float64{
		{1, 0}: 0.0, {1, 2}: 0.0, // 1 thread: errors cancel
		{2, 0}: 0.33, {2, 2}: 3.34, // 2 threads
		{4, 1}:  3.00, // 4 threads, 5%
		{16, 2}: 8.83, // 16 threads, 10%
	}
	threadIdx := map[int]int{1: 0, 2: 1, 4: 2, 8: 3, 16: 4}
	for key, w := range want {
		i := threadIdx[key[0]]
		got := res.MonteCarlo[i][key[1]]
		if math.Abs(got-w) > 0.15 {
			t.Errorf("threads=%d err-col=%d: Monte Carlo %.2f%%, paper %.2f%%",
				key[0], key[1], got, w)
		}
	}
	// Monte Carlo must converge to the closed form everywhere.
	for i := range res.Threads {
		for j := range res.ErrorPcts {
			if math.Abs(res.MonteCarlo[i][j]-res.ClosedForm[i][j]) > 0.2 {
				t.Errorf("MC %.2f vs exact %.2f at [%d][%d]",
					res.MonteCarlo[i][j], res.ClosedForm[i][j], i, j)
			}
		}
	}
	if !strings.Contains(res.String(), "Table I") {
		t.Fatal("rendering broken")
	}
}

func TestTableIErrorGrowsWithThreads(t *testing.T) {
	res := TableI(5000, 5, 2)
	for j := range res.ErrorPcts {
		prev := -1.0
		for i := range res.Threads {
			if res.MonteCarlo[i][j] < prev-0.1 {
				t.Fatalf("error did not grow with thread count at column %d", j)
			}
			prev = res.MonteCarlo[i][j]
		}
	}
}

func TestTableII(t *testing.T) {
	out := TableII()
	for _, name := range []string{"backprop", "streamcluster", "nw"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table II missing %s", name)
		}
	}
}

func TestTableIIIShape(t *testing.T) {
	res, err := TableIII(suiteCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 10 {
		t.Fatalf("Table III has %d rows, want 10", len(res.Names))
	}
	byName := map[string]int{}
	for i, n := range res.Names {
		byName[n] = i
	}
	// The paper's qualitative structure.
	if i := byName["fluidanimate"]; res.CriticalSections[i] <= res.Barriers[i] {
		t.Error("fluidanimate should be critical-section dominated")
	}
	if i := byName["streamcluster-parsec"]; res.Barriers[i] <= res.CriticalSections[i] {
		t.Error("streamcluster-parsec should be barrier dominated")
	}
	for _, name := range []string{"blackscholes", "freqmine", "swaptions"} {
		i := byName[name]
		if res.CriticalSections[i]+res.Barriers[i]+res.CondVars[i] != 0 {
			t.Errorf("%s should have no sync events (join-only)", name)
		}
	}
	if i := byName["vips"]; res.CondVars[i] == 0 {
		t.Error("vips should use condition variables")
	}
}

func TestTableIVStatic(t *testing.T) {
	out := TableIV()
	for _, s := range []string{"smallest", "biggest", "2.50", "128", "tournament"} {
		if !strings.Contains(out, s) {
			t.Fatalf("Table IV missing %q", s)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	res, err := Figure4(suiteCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 26 {
		t.Fatalf("Figure 4 has %d rows, want 26", len(res.Rows))
	}
	mainAvg, critAvg, rppmAvg := res.Averages()
	// The paper's headline ordering: RPPM < CRIT < MAIN.
	if !(rppmAvg < critAvg && critAvg < mainAvg) {
		t.Fatalf("error ordering broken: RPPM %.3f CRIT %.3f MAIN %.3f",
			rppmAvg, critAvg, mainAvg)
	}
	if rppmAvg > 0.25 {
		t.Fatalf("RPPM average error %.1f%% too large", rppmAvg*100)
	}
	if !strings.Contains(res.String(), "AVERAGE") {
		t.Fatal("rendering broken")
	}
}

func TestTableVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweep (16 benchmarks x 5 simulated configs) in short mode")
	}
	small := Config{Scale: 0.05, Seed: 1, Session: testSession}
	res, err := TableV(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("Table V has %d rows, want 16", len(res.Rows))
	}
	avg := res.AverageDeficiency()
	// Relaxing the bound can only help (more candidates, simulation picks).
	for b := 1; b < len(avg); b++ {
		if avg[b] > avg[b-1]+1e-9 {
			t.Fatalf("deficiency increased with bound: %v", avg)
		}
	}
	for _, row := range res.Rows {
		for b := 1; b < len(row.Candidates); b++ {
			if row.Candidates[b] < row.Candidates[b-1] {
				t.Fatalf("%s: candidate count shrank with larger bound", row.Name)
			}
		}
		for _, d := range row.Deficiency {
			if d < -1e-9 {
				t.Fatalf("%s: negative deficiency", row.Name)
			}
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	res, err := Figure5(suiteCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 26 {
		t.Fatal("Figure 5 incomplete")
	}
	for _, row := range res.Rows {
		if row.Sim.TotalCycles() <= 0 {
			t.Fatalf("%s: empty simulated stack", row.Name)
		}
		ratio := row.Model.TotalCycles() / row.Sim.TotalCycles()
		if ratio < 0.4 || ratio > 2.0 {
			t.Errorf("%s: model/sim stack ratio %.2f", row.Name, ratio)
		}
	}
	if !strings.Contains(res.String(), "CPI stacks") {
		t.Fatal("rendering broken")
	}
}

func TestFigure6Groups(t *testing.T) {
	res, err := Figure6(suiteCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatal("Figure 6 incomplete")
	}
	byName := map[string]Figure6Row{}
	for _, row := range res.Rows {
		byName[row.Name] = row
	}
	// Group 1 (balanced pool): blackscholes main thread is NOT the
	// bottleneck, worker parallelism ~4.
	bs := byName["blackscholes"]
	if bs.Sim.Bottleneck() == 0 || bs.Model.Bottleneck() == 0 {
		t.Error("blackscholes: main thread reported as bottleneck")
	}
	// Group 2: freqmine's main thread IS the bottleneck, in both views.
	fm := byName["freqmine"]
	if fm.Sim.Bottleneck() != 0 {
		t.Error("freqmine: simulation should bottleneck on the main thread")
	}
	if fm.Model.Bottleneck() != 0 {
		t.Error("freqmine: RPPM should bottleneck on the main thread")
	}
	// Model and simulation must agree on the paper's grouping question —
	// is the main thread the bottleneck? — for most rows. (In balanced
	// pools the tallest worker box is a coin flip, so exact thread-id
	// agreement is not meaningful.)
	agree := 0
	for _, row := range res.Rows {
		if (row.Model.Bottleneck() == 0) == (row.Sim.Bottleneck() == 0) {
			agree++
		}
	}
	if agree < 8 {
		t.Errorf("model and simulation agree on main-thread-bottleneck for only %d/10 benchmarks", agree)
	}
}

func TestAblationsWorsenError(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in short mode")
	}
	cfg := Config{Scale: 0.1, Seed: 1, Session: testSession}
	for _, tc := range []struct {
		name string
		run  func(Config) (*AblationResult, error)
	}{
		{"globalRD", AblationGlobalRD},
		{"coherence", AblationCoherence},
		{"mlp", AblationMLP},
	} {
		res, err := tc.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		full, ablated := res.Averages()
		// Removing a mechanism must not make the model meaningfully more
		// accurate (a small tolerance absorbs noise for mechanisms whose
		// contribution is minor at reduced scale, e.g. coherence).
		if ablated < full-0.005 {
			t.Errorf("%s: ablated error %.3f below full-model error %.3f "+
				"(mechanism not contributing)", tc.name, ablated, full)
		}
		if !strings.Contains(res.String(), "Ablation") {
			t.Fatal("rendering broken")
		}
	}
}

func TestSignedError(t *testing.T) {
	if signedError(110, 100) != 0.1 {
		t.Fatal("signedError broken")
	}
	if signedError(5, 0) != 0 {
		t.Fatal("zero actual should yield zero error")
	}
}

func TestRunBenchErrorsOnBadConfig(t *testing.T) {
	bm, _ := workload.ByName("nn")
	cfg := testCfg.withDefaults()
	bad := badConfig()
	if _, err := runBench(bm, cfg, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// badConfig returns an invalid architecture configuration.
func badConfig() (c archConfig) {
	c = archBase()
	c.Cores = 0
	return c
}

type archConfig = arch.Config

func archBase() arch.Config { return arch.Base() }
