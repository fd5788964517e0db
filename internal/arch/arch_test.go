package arch

import (
	"math"
	"strings"
	"testing"
)

func TestBaseValid(t *testing.T) {
	c := Base()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDesignSpaceValid(t *testing.T) {
	space := DesignSpace()
	if len(space) != 5 {
		t.Fatalf("design space has %d points, want 5", len(space))
	}
	for _, c := range space {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestDesignSpaceConstantPeakThroughput(t *testing.T) {
	// Table IV: all five configurations can execute at most ~10 billion
	// instructions per second (width x frequency = 10).
	for _, c := range DesignSpace() {
		peak := c.PeakOpsPerSecond() / 1e9
		if math.Abs(peak-10) > 0.05 {
			t.Errorf("%s: peak %v Gops/s, want ~10", c.Name, peak)
		}
	}
}

func TestDesignSpaceTableIVValues(t *testing.T) {
	space := DesignSpace()
	wantWidth := []int{2, 3, 4, 5, 6}
	wantROB := []int{32, 72, 128, 200, 288}
	wantIQ := []int{16, 36, 64, 100, 144}
	wantFreq := []float64{5.00, 3.33, 2.50, 2.00, 1.66}
	for i, c := range space {
		if c.DispatchWidth != wantWidth[i] {
			t.Errorf("%s width = %d, want %d", c.Name, c.DispatchWidth, wantWidth[i])
		}
		if c.ROBSize != wantROB[i] {
			t.Errorf("%s ROB = %d, want %d", c.Name, c.ROBSize, wantROB[i])
		}
		if c.IssueQueueSize != wantIQ[i] {
			t.Errorf("%s IQ = %d, want %d", c.Name, c.IssueQueueSize, wantIQ[i])
		}
		if math.Abs(c.FrequencyGHz-wantFreq[i]) > 1e-9 {
			t.Errorf("%s freq = %v, want %v", c.Name, c.FrequencyGHz, wantFreq[i])
		}
	}
}

func TestCacheHierarchyTableIV(t *testing.T) {
	c := Base()
	if c.L1I.SizeBytes != 32<<10 || c.L1I.Assoc != 4 {
		t.Error("L1I should be 32 KB 4-way")
	}
	if c.L1D.SizeBytes != 32<<10 || c.L1D.Assoc != 4 {
		t.Error("L1D should be 32 KB 4-way")
	}
	if c.L2.SizeBytes != 256<<10 || c.L2.Assoc != 8 || c.L2.Shared {
		t.Error("L2 should be 256 KB 8-way private")
	}
	if c.LLC.SizeBytes != 8<<20 || c.LLC.Assoc != 16 || !c.LLC.Shared {
		t.Error("LLC should be 8 MB 16-way shared")
	}
	if c.BPredBytes != 4<<10 {
		t.Error("branch predictor should be 4 KB")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Cores = 0 }, "Cores"},
		{func(c *Config) { c.DispatchWidth = 0 }, "DispatchWidth"},
		{func(c *Config) { c.ROBSize = 1 }, "ROBSize"},
		{func(c *Config) { c.IssueQueueSize = c.ROBSize * 2 }, "IssueQueueSize"},
		{func(c *Config) { c.FrequencyGHz = 0 }, "FrequencyGHz"},
		{func(c *Config) { c.MemLatency = 0 }, "MemLatency"},
		{func(c *Config) { c.L1D.SizeBytes = 0 }, "L1D"},
		{func(c *Config) { c.L2.LineBytes = 128 }, "line sizes"},
		{func(c *Config) { c.MSHRs = 0 }, "MSHRs"},
	}
	for _, tc := range cases {
		c := Base()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("mutation expecting %q passed validation", tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not mention %q", err, tc.want)
		}
	}
}

func TestCacheGeometry(t *testing.T) {
	c := Base()
	if c.LLC.Lines() != (8<<20)/64 {
		t.Fatalf("LLC lines = %d", c.LLC.Lines())
	}
	if c.LLC.Sets() != (8<<20)/64/16 {
		t.Fatalf("LLC sets = %d", c.LLC.Sets())
	}
}

func TestCyclesToSeconds(t *testing.T) {
	c := Base() // 2.5 GHz
	got := c.CyclesToSeconds(2.5e9)
	if math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("2.5G cycles at 2.5GHz = %v s, want 1", got)
	}
}

func TestWithCores(t *testing.T) {
	c := Base().WithCores(8)
	if c.Cores != 8 {
		t.Fatal("WithCores did not set core count")
	}
	if Base().Cores != 4 {
		t.Fatal("WithCores mutated the base config")
	}
}

func TestStringContainsName(t *testing.T) {
	c := Base()
	s := c.String()
	if !strings.Contains(s, "base") {
		t.Fatalf("String() = %q", s)
	}
}

func TestSweepSpace(t *testing.T) {
	// 350 drives every compounding mutation past its clamp, covering the
	// saturation fallback that keeps deep variants parameter-distinct.
	for _, n := range []int{1, 5, 16, 40, 350} {
		space := SweepSpace(n)
		if len(space) != n {
			t.Fatalf("SweepSpace(%d) returned %d configs", n, len(space))
		}
		seen := make(map[string]bool)
		params := make(map[Config]string)
		for _, c := range space {
			if err := c.Validate(); err != nil {
				t.Errorf("SweepSpace(%d): invalid config %s: %v", n, c.Name, err)
			}
			if seen[c.Name] {
				t.Errorf("SweepSpace(%d): duplicate config name %q", n, c.Name)
			}
			seen[c.Name] = true
			anon := c
			anon.Name = ""
			if prev, dup := params[anon]; dup {
				t.Errorf("SweepSpace(%d): %q and %q describe identical hardware", n, prev, c.Name)
			}
			params[anon] = c.Name
		}
	}
	// The first five are exactly the paper's design space.
	space := SweepSpace(16)
	for i, want := range DesignSpace() {
		if space[i] != want {
			t.Errorf("SweepSpace[%d] = %s, want Table IV point %s", i, space[i].Name, want.Name)
		}
	}
}

// TestValidateMessages pins Validate's full error text: every failing
// check, in order, worded as callers and logs have always seen it.
func TestValidateMessages(t *testing.T) {
	zero := Config{Name: "zero"}
	broken := Base()
	broken.FrequencyGHz = math.NaN()
	broken.ROBSize = 1
	broken.IssueQueueSize = 2
	broken.L2.LineBytes = 128
	broken.L2.Assoc = 7
	for _, tc := range []struct {
		c    Config
		want string
	}{
		{zero, `arch: invalid config "zero": Cores must be positive, got 0; FrequencyGHz must be positive, got 0; DispatchWidth must be positive, got 0; IssueQueueSize must be positive, got 0; FrontendDepth must be positive, got 0; MSHRs must be positive, got 0; MemLatency must be positive, got 0; L1I size must be positive; L1I line size must be positive; L1I associativity must be positive; L1I hit latency must be positive; L1D size must be positive; L1D line size must be positive; L1D associativity must be positive; L1D hit latency must be positive; L2 size must be positive; L2 line size must be positive; L2 associativity must be positive; L2 hit latency must be positive; LLC size must be positive; LLC line size must be positive; LLC associativity must be positive; LLC hit latency must be positive`},
		{broken, `arch: invalid config "base": FrequencyGHz must be positive, got NaN; ROBSize 1 must be >= DispatchWidth 4; IssueQueueSize 2 must be <= ROBSize 1; L2 lines not divisible by associativity; cache line sizes must match across the hierarchy`},
	} {
		err := tc.c.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("Validate() = %v\nwant %s", err, tc.want)
		}
	}
}

// TestValidateAllocatesNothing: Validate runs on every prediction and
// simulation, so a valid config must cost no allocation.
func TestValidateAllocatesNothing(t *testing.T) {
	space := SweepSpace(256)
	i := 0
	allocs := testing.AllocsPerRun(len(space), func() {
		if err := space[i%len(space)].Validate(); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Validate allocates %v times per valid config, want 0", allocs)
	}
}
