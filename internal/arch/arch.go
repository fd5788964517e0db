// Package arch describes target multicore processor configurations.
//
// A Config is the only microarchitecture-dependent input to the RPPM
// prediction step; the workload profile never depends on it. The five
// design points of the paper's Table IV (Smallest..Biggest) are provided
// as a ready-made design space: width scales from 2 to 6 with ROB and
// issue-queue resources, while frequency scales inversely so that peak
// throughput (operations per second) is constant across the space.
package arch

import (
	"fmt"
	"strings"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int  // total capacity in bytes
	Assoc     int  // associativity (ways)
	LineBytes int  // cache line size in bytes
	Shared    bool // shared among all cores (true for the LLC)
	// HitLatency is the load-to-use hit latency of this level, in cycles.
	HitLatency int
}

// Lines returns the number of cache lines this level holds.
func (c CacheConfig) Lines() int { return c.SizeBytes / c.LineBytes }

// Sets returns the number of sets.
func (c CacheConfig) Sets() int { return c.Lines() / c.Assoc }

// Config is a full multicore processor configuration.
type Config struct {
	Name string

	Cores int // number of cores; RPPM assumes one thread per core

	FrequencyGHz float64 // core clock

	// Out-of-order core parameters.
	DispatchWidth  int // front-end dispatch (and commit) width
	ROBSize        int // reorder buffer entries
	IssueQueueSize int // scheduler entries
	FrontendDepth  int // pipeline refill depth after a mispredict, cycles

	// Functional unit issue ports per class group per cycle.
	IntALUPorts  int
	IntMulPorts  int
	FPPorts      int
	LoadPorts    int
	StorePorts   int
	BranchUnits  int
	MSHRs        int // outstanding misses to memory per core (caps MLP)
	BPredBytes   int // branch predictor storage budget (paper: 4 KB tournament)
	L1I, L1D, L2 CacheConfig
	LLC          CacheConfig

	MemLatency int // main-memory access latency in cycles

	// Synchronization overhead constants, in cycles: the cost of executing
	// the synchronization primitive itself (lock/unlock instructions,
	// barrier bookkeeping), excluding waiting time.
	SyncOverhead int
}

// Validate checks internal consistency of the configuration. It runs on
// every prediction and simulation, so a valid config allocates nothing:
// messages are formatted only for the checks that fail.
func (c *Config) Validate() error {
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if !(c.Cores > 0) {
		fail("Cores must be positive, got %d", c.Cores)
	}
	if !(c.FrequencyGHz > 0) {
		fail("FrequencyGHz must be positive, got %v", c.FrequencyGHz)
	}
	if !(c.DispatchWidth > 0) {
		fail("DispatchWidth must be positive, got %d", c.DispatchWidth)
	}
	if !(c.ROBSize >= c.DispatchWidth) {
		fail("ROBSize %d must be >= DispatchWidth %d", c.ROBSize, c.DispatchWidth)
	}
	if !(c.IssueQueueSize > 0) {
		fail("IssueQueueSize must be positive, got %d", c.IssueQueueSize)
	}
	if !(c.IssueQueueSize <= c.ROBSize) {
		fail("IssueQueueSize %d must be <= ROBSize %d", c.IssueQueueSize, c.ROBSize)
	}
	if !(c.FrontendDepth > 0) {
		fail("FrontendDepth must be positive, got %d", c.FrontendDepth)
	}
	if !(c.MSHRs > 0) {
		fail("MSHRs must be positive, got %d", c.MSHRs)
	}
	if !(c.MemLatency > 0) {
		fail("MemLatency must be positive, got %d", c.MemLatency)
	}
	for _, lvl := range [...]struct {
		name string
		c    *CacheConfig
	}{{"L1I", &c.L1I}, {"L1D", &c.L1D}, {"L2", &c.L2}, {"LLC", &c.LLC}} {
		if !(lvl.c.SizeBytes > 0) {
			fail("%s size must be positive", lvl.name)
		}
		if !(lvl.c.LineBytes > 0) {
			fail("%s line size must be positive", lvl.name)
		}
		if !(lvl.c.Assoc > 0) {
			fail("%s associativity must be positive", lvl.name)
		}
		if lvl.c.SizeBytes > 0 && lvl.c.LineBytes > 0 && lvl.c.Assoc > 0 &&
			lvl.c.Lines()%lvl.c.Assoc != 0 {
			fail("%s lines not divisible by associativity", lvl.name)
		}
		if !(lvl.c.HitLatency > 0) {
			fail("%s hit latency must be positive", lvl.name)
		}
	}
	if c.L1D.LineBytes != c.LLC.LineBytes || c.L2.LineBytes != c.LLC.LineBytes {
		fail("cache line sizes must match across the hierarchy")
	}
	if len(problems) > 0 {
		return fmt.Errorf("arch: invalid config %q: %s", c.Name, strings.Join(problems, "; "))
	}
	return nil
}

// CyclesToSeconds converts a cycle count to seconds at this configuration's
// clock frequency.
func (c *Config) CyclesToSeconds(cycles float64) float64 {
	return cycles / (c.FrequencyGHz * 1e9)
}

// PeakOpsPerSecond returns the maximum operations per second of one core:
// dispatch width times clock frequency.
func (c *Config) PeakOpsPerSecond() float64 {
	return float64(c.DispatchWidth) * c.FrequencyGHz * 1e9
}

func (c *Config) String() string {
	return fmt.Sprintf("%s: %d cores, %.2f GHz, width %d, ROB %d, IQ %d",
		c.Name, c.Cores, c.FrequencyGHz, c.DispatchWidth, c.ROBSize, c.IssueQueueSize)
}

// baseCaches returns the cache hierarchy shared by every Table IV design
// point: 32 KB 4-way private L1s, 256 KB 8-way private L2, 8 MB 16-way
// shared LLC, 64-byte lines.
func baseCaches() (l1i, l1d, l2, llc CacheConfig) {
	l1i = CacheConfig{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, HitLatency: 1}
	l1d = CacheConfig{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, HitLatency: 3}
	l2 = CacheConfig{SizeBytes: 256 << 10, Assoc: 8, LineBytes: 64, HitLatency: 12}
	llc = CacheConfig{SizeBytes: 8 << 20, Assoc: 16, LineBytes: 64, Shared: true, HitLatency: 35}
	return
}

// memLatencyNS is the main-memory access latency in nanoseconds. DRAM
// latency is set by the memory technology, not the core clock, so its
// cycle count scales with frequency: the 5 GHz design point waits twice as
// many cycles for DRAM as the 2.5 GHz one. This is what creates genuine
// trade-offs across the equal-peak-throughput design space.
const memLatencyNS = 80.0

// newConfig assembles a full design point around the varying core parameters.
func newConfig(name string, freqGHz float64, width, rob, iq int) Config {
	l1i, l1d, l2, llc := baseCaches()
	return Config{
		Name:           name,
		Cores:          4,
		FrequencyGHz:   freqGHz,
		DispatchWidth:  width,
		ROBSize:        rob,
		IssueQueueSize: iq,
		FrontendDepth:  6,
		IntALUPorts:    max(1, width-1),
		IntMulPorts:    1,
		FPPorts:        max(1, width/2),
		LoadPorts:      max(1, width/2),
		StorePorts:     1,
		BranchUnits:    1,
		MSHRs:          10,
		BPredBytes:     4 << 10,
		L1I:            l1i,
		L1D:            l1d,
		L2:             l2,
		LLC:            llc,
		MemLatency:     int(memLatencyNS*freqGHz + 0.5),
		SyncOverhead:   60,
	}
}

// Base returns the paper's base configuration (Table IV middle column):
// a 2.5 GHz 4-wide core with a 128-entry ROB.
func Base() Config { return newConfig("base", 2.50, 4, 128, 64) }

// DesignSpace returns the five Table IV design points, ordered
// smallest..biggest. All five have identical peak operations per second
// (10 billion ops/s): width × frequency = 10.
func DesignSpace() []Config {
	return []Config{
		newConfig("smallest", 5.00, 2, 32, 16),
		newConfig("small", 3.33, 3, 72, 36),
		Base(),
		newConfig("big", 2.00, 5, 200, 100),
		newConfig("biggest", 1.66, 6, 288, 144),
	}
}

// SweepSpace returns n distinct, validated configurations for design-space
// sweeps. The first five are the Table IV points; beyond those, derived
// variants walk outward from each point, compounding one mutation per
// round — deeper buffers, then constrained memory-level parallelism with
// a larger predictor, then a doubled L2, and around again — the kind of
// neighborhood exploration a record-once/replay-many sweep is built to
// make cheap. Compounding keeps every configuration parameter-distinct,
// not just distinctly named.
func SweepSpace(n int) []Config {
	points := DesignSpace()
	state := append([]Config(nil), points...) // per-point accumulated variant
	// seen tracks every parameter set already emitted per point (names
	// stripped): clamped mutations can revisit a state — e.g. the MSHR
	// add/halve pair admits a 4→8→4 cycle — and revisits must not emit.
	seen := make([]map[Config]bool, len(points))
	for b, p := range points {
		p.Name = ""
		seen[b] = map[Config]bool{p: true}
	}
	out := make([]Config, 0, n)
	for i := 0; len(out) < n; i++ {
		b := i % len(points)
		c := points[b]
		if v := i / len(points); v > 0 {
			c = state[b]
			// Mutations are clamped to a realistic envelope so an
			// arbitrarily large n cannot compound its way to terabyte
			// caches (or integer overflow).
			switch (v - 1) % 3 {
			case 0: // deeper out-of-order window
				if r := c.ROBSize * 3 / 2; r <= 4096 {
					c.ROBSize = r
					if c.IssueQueueSize = c.IssueQueueSize * 3 / 2; c.IssueQueueSize > c.ROBSize {
						c.IssueQueueSize = c.ROBSize
					}
				}
				if c.MSHRs < 64 {
					c.MSHRs += 4
				}
			case 1: // constrained MLP, larger branch predictor
				if c.MSHRs = c.MSHRs / 2; c.MSHRs < 1 {
					c.MSHRs = 1
				}
				if c.BPredBytes < 1<<20 {
					c.BPredBytes *= 2
				}
			case 2: // doubled private L2
				if c.L2.SizeBytes < 32<<20 {
					c.L2.SizeBytes *= 2
				}
			}
			// Keep the walk parameter-distinct at any depth: whenever a
			// mutation saturates or cycles back to an emitted state, step
			// the one knob that stays physical no matter how far the walk
			// goes (a marginally slower DRAM part).
			anon := c
			anon.Name = ""
			for seen[b][anon] {
				c.MemLatency++
				anon.MemLatency++
			}
			seen[b][anon] = true
			c.Name = fmt.Sprintf("%s+v%d", points[b].Name, v)
			state[b] = c
		}
		if err := c.Validate(); err != nil {
			panic(fmt.Sprintf("arch: SweepSpace produced an invalid config: %v", err))
		}
		out = append(out, c)
	}
	return out
}

// WithCores returns a copy of c with the given core count.
func (c Config) WithCores(n int) Config {
	c.Cores = n
	return c
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
