// Package workload provides generative multithreaded workloads: deterministic
// synthetic programs that stand in for the paper's Rodinia and Parsec
// benchmarks.
//
// A workload is assembled from compute Blocks (parameterized instruction
// stream generators) interleaved with synchronization events. The parameters
// — instruction mix, dependence distances, data footprints and locality,
// sharing and write fractions, branch bias, code footprint — are exactly the
// microarchitecture-independent quantities RPPM profiles, so each benchmark's
// parameter set determines its position in the design space the same way a
// real binary's inherent characteristics would.
package workload

import (
	"sync"

	"rppm/internal/prng"
	"rppm/internal/trace"
)

// Address-space layout: each thread owns a private region, all threads share
// one region, and code lives in its own region. The regions are far apart so
// they can never alias.
const (
	privateBase = uint64(0x1000_0000_0000)
	privateSpan = uint64(1) << 36 // per-thread private region stride
	sharedBase  = uint64(0x2000_0000_0000)
	codeBase    = uint64(0x4000_0000_0000)
	codeSpan    = uint64(1) << 24 // per-code-region stride
	lineBytes   = 64
	instrBytes  = 4
)

// Mix is an instruction-class mixture. Weights need not sum to one; they are
// normalized when the block is instantiated.
type Mix struct {
	IntALU, IntMul, IntDiv float64
	FPAdd, FPMul, FPDiv    float64
	Load, Store, Branch    float64
}

// weightsArr returns the class-indexed weight vector by value — the
// allocation-free form used on the per-block-instance path.
func (m Mix) weightsArr() [trace.NumClasses]float64 {
	return [trace.NumClasses]float64{m.IntALU, m.IntMul, m.IntDiv, m.FPAdd, m.FPMul, m.FPDiv, m.Load, m.Store, m.Branch}
}

func (m Mix) weights() []float64 {
	w := m.weightsArr()
	return w[:]
}

// MixInt returns a typical integer-dominated mix.
func MixInt() Mix {
	return Mix{IntALU: 0.42, IntMul: 0.02, Load: 0.25, Store: 0.12, Branch: 0.19}
}

// MixFP returns a floating-point-dominated mix.
func MixFP() Mix {
	return Mix{IntALU: 0.20, FPAdd: 0.18, FPMul: 0.16, FPDiv: 0.01, Load: 0.27, Store: 0.10, Branch: 0.08}
}

// MixStream returns a memory-streaming mix.
func MixStream() Mix {
	return Mix{IntALU: 0.25, FPAdd: 0.12, Load: 0.38, Store: 0.15, Branch: 0.10}
}

// Block parameterizes one compute region of a thread.
type Block struct {
	// N is the number of dynamic instructions (before builder scaling).
	N int

	// Mix is the instruction-class mixture.
	Mix Mix

	// DepMean is the mean producer-consumer register dependence distance in
	// instructions (geometrically distributed, >= 1). Small values mean long
	// dependence chains and low ILP.
	DepMean float64

	// LoadChainFrac is the fraction of loads that source the previous
	// load's destination (pointer chasing); it throttles MLP.
	LoadChainFrac float64

	// Data footprints and locality.
	PrivateBytes uint64  // private data region size
	HotBytes     uint64  // hot private subset (0 disables)
	HotFrac      float64 // fraction of private refs hitting the hot subset
	SharedBytes  uint64  // shared region size (shared by all threads)
	SharedFrac   float64 // fraction of memory refs to the shared region
	SeqFrac      float64 // fraction of refs that continue sequentially (spatial locality)

	// Code footprint: number of distinct 64-byte instruction lines the block
	// loops over. Blocks with equal CodeID share their code region.
	CodeLines int
	CodeID    int

	// Branch behaviour: BranchSites static sites; a site's probability of
	// its biased direction is BranchBias, except a RandomFrac fraction of
	// sites that are 50/50 (data-dependent branches).
	BranchSites int
	BranchBias  float64
	RandomFrac  float64

	// Skewed line popularity (the YCSB-style distribution layer in
	// internal/prng). When an exponent is positive, the corresponding
	// region's non-sequential references draw a zipfian rank instead of a
	// uniform line: rank 0 is the most popular line, with popularity
	// falling off as 1/(rank+1)^theta. Ranks are mapped to lines through
	// a fixed bijection so hot lines spread over the footprint instead of
	// clustering at its base (YCSB's scrambled-zipfian idiom). The zero
	// values keep the original uniform draws bit-exactly, so every
	// pre-existing benchmark is unaffected.
	PrivZipfTheta   float64 // private-region random refs
	SharedZipfTheta float64 // shared-region random refs
}

// withDefaults fills zero-valued fields with safe defaults so that sparse
// literals in the suite stay readable.
func (b Block) withDefaults() Block {
	if b.DepMean <= 0 {
		b.DepMean = 6
	}
	if b.PrivateBytes == 0 {
		b.PrivateBytes = 64 << 10
	}
	if b.SeqFrac == 0 {
		b.SeqFrac = 0.4
	}
	if b.CodeLines <= 0 {
		b.CodeLines = 32
	}
	if b.BranchSites <= 0 {
		b.BranchSites = 16
	}
	if b.BranchBias <= 0 {
		b.BranchBias = 0.95
	}
	w := b.Mix.weightsArr()
	total := 0.0
	for _, x := range w {
		total += x
	}
	if total == 0 {
		b.Mix = MixInt()
	}
	return b
}

// blockGen generates the instruction stream of one Block instance.
type blockGen struct {
	b   Block
	rng prng.Source

	// Hot-loop constants hoisted out of next(): the integer-compare class
	// sampler, the log-free dependence-distance sampler, the current
	// wrapped position in the code region (replacing a modulo per
	// instruction), and line counts with masks for the power-of-two
	// footprints the suite mostly uses.
	classTable              *prng.PickTable
	depTable                *prng.GeometricTable
	privZipf, sharedZipf    *prng.ZipfTable // nil = uniform (the original draws)
	pcIndex                 int
	sharedLines, sharedMask uint64
	privLines, privMask     uint64
	hotLines, hotMask       uint64
	// Precomputed BoolT thresholds for every fixed-probability draw.
	halfT, sharedT, seqT, hotT, chainT float64
	takenT                             []float64 // per branch site

	tid        int
	count      int // instructions emitted so far
	remaining  int
	codeInstrs int
	codeRegion uint64

	lastPriv    uint64 // last private address (for sequential locality)
	lastShared  uint64
	lastLoadDst int8
}

// newBlockGen instantiates a generator. n is the scaled instruction count.
func newBlockGen(b Block, tid, n int, seed uint64) *blockGen {
	g := new(blockGen)
	g.init(b, tid, n, seed)
	return g
}

// init resets g in place for a new block instance: threadStream reuses one
// generator struct across all its compute segments, so driving a long
// program allocates nothing per block. The generated stream is identical
// to a freshly allocated generator's.
func (g *blockGen) init(b Block, tid, n int, seed uint64) {
	b = b.withDefaults()
	*g = blockGen{
		b:           b,
		rng:         prng.Seeded(seed),
		tid:         tid,
		remaining:   n,
		codeInstrs:  b.CodeLines * (lineBytes / instrBytes),
		codeRegion:  codeBase + uint64(b.CodeID)*codeSpan,
		lastLoadDst: -1,
	}
	g.classTable = classTableFor(b.Mix.weightsArr())
	g.depTable = depTableFor(b.DepMean)
	g.sharedLines, g.sharedMask = linesOf(b.SharedBytes)
	g.privLines, g.privMask = linesOf(b.PrivateBytes)
	g.hotLines, g.hotMask = linesOf(b.HotBytes)
	g.privZipf = zipfTableFor(g.privLines, b.PrivZipfTheta)
	g.sharedZipf = zipfTableFor(g.sharedLines, b.SharedZipfTheta)
	g.halfT = prng.BoolThresh(0.5)
	g.sharedT = prng.BoolThresh(b.SharedFrac)
	g.seqT = prng.BoolThresh(b.SeqFrac)
	g.hotT = prng.BoolThresh(b.HotFrac)
	g.chainT = prng.BoolThresh(b.LoadChainFrac)
	g.takenT = takenTableFor(b)
	// Each block instance starts at a seed-derived phase into its code
	// region, so successive instances of a large-code block exercise
	// different windows of the footprint (as different call paths through a
	// big binary would) instead of replaying the same prefix.
	g.pcIndex = int(seed>>17) % g.codeInstrs
	g.lastPriv = g.privBase()
	g.lastShared = sharedBase
}

func (g *blockGen) privBase() uint64 {
	return privateBase + uint64(g.tid)*privateSpan
}

// takenKey identifies a block's branch-site probability layout.
type takenKey struct {
	sites      int
	bias       float64
	randomFrac float64
}

// takenTables caches per-site taken thresholds per branch-behaviour tuple.
var takenTables sync.Map // takenKey -> []float64

func takenTableFor(b Block) []float64 {
	key := takenKey{sites: b.BranchSites, bias: b.BranchBias, randomFrac: b.RandomFrac}
	if t, ok := takenTables.Load(key); ok {
		return t.([]float64)
	}
	g := blockGen{b: b}
	t := make([]float64, b.BranchSites)
	for site := range t {
		t[site] = prng.BoolThresh(g.branchSiteProb(site))
	}
	actual, _ := takenTables.LoadOrStore(key, t)
	return actual.([]float64)
}

// classTables caches instruction-class samplers per mix weight vector,
// mirroring depTables.
var classTables sync.Map // [NumClasses]float64 -> *prng.PickTable

func classTableFor(key [trace.NumClasses]float64) *prng.PickTable {
	if t, ok := classTables.Load(key); ok {
		return t.(*prng.PickTable)
	}
	// Construction runs once per distinct mix; the slice may escape into
	// the table, so it is taken from the (copied) key parameter.
	t := prng.NewPickTable(key[:])
	actual, _ := classTables.LoadOrStore(key, t)
	return actual.(*prng.PickTable)
}

// zipfKey identifies a cached zipfian line-popularity sampler.
type zipfKey struct {
	lines uint64
	theta float64
}

// zipfTables caches line-popularity samplers per (footprint, exponent):
// building one costs a Pow per line, and block generators are
// instantiated per segment.
var zipfTables sync.Map // zipfKey -> *prng.ZipfTable

// zipfTableFor returns the sampler for a footprint of lines lines with
// exponent theta, or nil when theta is zero (uniform — the original
// draws) or the footprint is degenerate.
func zipfTableFor(lines uint64, theta float64) *prng.ZipfTable {
	if theta <= 0 || lines < 2 {
		return nil
	}
	key := zipfKey{lines: lines, theta: theta}
	if t, ok := zipfTables.Load(key); ok {
		return t.(*prng.ZipfTable)
	}
	t := prng.NewZipfTable(int(lines), theta)
	actual, _ := zipfTables.LoadOrStore(key, t)
	return actual.(*prng.ZipfTable)
}

// zipfLine draws a popularity rank and maps it to a line through a fixed
// bijection: for power-of-two footprints an odd-multiplier mix spreads
// the hot ranks over the whole region (YCSB's scrambled zipfian); other
// footprints use the identity, concentrating the hot set at the region
// base. Consumes exactly one draw.
func (g *blockGen) zipfLine(t *prng.ZipfTable, mask uint64) uint64 {
	rank := uint64(t.Sample(&g.rng))
	if mask != 0 {
		return (rank * 0x9E3779B97F4A7C15) & mask
	}
	return rank
}

// linesOf returns a byte size's line count plus an index mask when the
// count is a power of two, letting randLine replace the per-access modulo
// (a data-dependent divide) with an and.
func linesOf(bytes uint64) (lines, mask uint64) {
	lines = bytes / lineBytes
	if lines > 0 && lines&(lines-1) == 0 {
		mask = lines - 1
	}
	return lines, mask
}

// randLine draws a uniform line index in [0, lines), bit-identical to
// rng.Uint64n(lines): for a power-of-two count the modulo is a mask.
func (g *blockGen) randLine(lines, mask uint64) uint64 {
	if mask != 0 {
		return g.rng.Uint64() & mask
	}
	return g.rng.Uint64n(lines)
}

// depTables caches dependence-distance samplers per DepMean: a table costs
// a few thousand reference inverse-CDF evaluations to build, and block
// generators are instantiated per segment — thousands of times per
// program. Samplers cap at NumRegs because next() clamps every distance to
// NumRegs-1 anyway; min(k, NumRegs) behaves identically under that clamp.
var depTables sync.Map // DepMean (float64) -> *prng.GeometricTable

func depTableFor(depMean float64) *prng.GeometricTable {
	if t, ok := depTables.Load(depMean); ok {
		return t.(*prng.GeometricTable)
	}
	t := prng.NewGeometricTable(1/depMean, trace.NumRegs)
	actual, _ := depTables.LoadOrStore(depMean, t)
	return actual.(*prng.GeometricTable)
}

// done reports whether the block is exhausted.
func (g *blockGen) done() bool { return g.remaining <= 0 }

// branchSiteProb returns the deterministic taken-probability of a static
// branch site. Sites alternate bias direction; a RandomFrac prefix of the
// site space is 50/50.
func (g *blockGen) branchSiteProb(site int) float64 {
	if float64(site) < g.b.RandomFrac*float64(g.b.BranchSites) {
		return 0.5
	}
	if site%2 == 0 {
		return g.b.BranchBias
	}
	return 1 - g.b.BranchBias
}

// genAddr produces the next data address (line-aligned).
func (g *blockGen) genAddr() uint64 {
	shared := g.b.SharedBytes > 0 && g.rng.BoolT(g.sharedT)
	if shared {
		if g.rng.BoolT(g.seqT) {
			g.lastShared += lineBytes
			if g.lastShared >= sharedBase+g.b.SharedBytes {
				g.lastShared = sharedBase
			}
			return g.lastShared
		}
		var ln uint64
		if g.sharedZipf != nil {
			ln = g.zipfLine(g.sharedZipf, g.sharedMask)
		} else {
			ln = g.randLine(g.sharedLines, g.sharedMask)
		}
		a := sharedBase + ln*lineBytes
		g.lastShared = a
		return a
	}
	base := g.privBase()
	if g.rng.BoolT(g.seqT) {
		g.lastPriv += lineBytes
		if g.lastPriv >= base+g.b.PrivateBytes {
			g.lastPriv = base
		}
		return g.lastPriv
	}
	if g.b.HotBytes > 0 && g.rng.BoolT(g.hotT) {
		a := base + g.randLine(g.hotLines, g.hotMask)*lineBytes
		g.lastPriv = a
		return a
	}
	var ln uint64
	if g.privZipf != nil {
		ln = g.zipfLine(g.privZipf, g.privMask)
	} else {
		ln = g.randLine(g.privLines, g.privMask)
	}
	a := base + ln*lineBytes
	g.lastPriv = a
	return a
}

// fill emits up to len(buf) instructions into buf and returns the count
// written, generating in place.
func (g *blockGen) fill(buf []trace.Item) int {
	n := len(buf)
	if g.remaining < n {
		n = g.remaining
	}
	for i := range buf[:n] {
		// Only IsSync is reset: per the ThreadStream contract the Sync
		// field of instruction items is unspecified, which saves a full
		// Item clear per generated instruction.
		buf[i].IsSync = false
		g.emit(&buf[i].Instr)
	}
	return n
}

// emit generates the next instruction into in, overwriting every Instr
// field (the conditionally-set ones are cleared up front, so callers can
// hand in dirty buffer slots).
func (g *blockGen) emit(in *trace.Instr) {
	in.Addr = 0
	in.BranchID = 0
	in.Taken = false
	cls := trace.Class(g.classTable.Sample(&g.rng))
	in.Class = cls

	// Register dependences: instruction i writes register i mod NumRegs, so
	// "the register written d instructions ago" is (i-d) mod NumRegs. The
	// dependence distance is geometric with mean DepMean. The clamps keep
	// count-d non-negative, so the mod reduces to a mask.
	const regMask = trace.NumRegs - 1
	in.Dst = int8(uint(g.count) & regMask)
	d1 := g.depTable.Sample(&g.rng)
	if d1 > g.count {
		d1 = g.count
	}
	if d1 >= trace.NumRegs {
		d1 = trace.NumRegs - 1
	}
	if d1 >= 1 {
		in.Src1 = int8(uint(g.count-d1) & regMask)
	} else {
		in.Src1 = -1
	}
	if g.rng.BoolT(g.halfT) {
		d2 := g.depTable.Sample(&g.rng)
		if d2 > g.count {
			d2 = g.count
		}
		if d2 >= trace.NumRegs {
			d2 = trace.NumRegs - 1
		}
		if d2 >= 1 {
			in.Src2 = int8(uint(g.count-d2) & regMask)
		} else {
			in.Src2 = -1
		}
	} else {
		in.Src2 = -1
	}

	in.PC = g.codeRegion + uint64(g.pcIndex)*instrBytes

	switch {
	case cls.IsMem():
		in.Addr = g.genAddr()
		if cls == trace.Load {
			if g.lastLoadDst >= 0 && g.rng.BoolT(g.chainT) {
				in.Src1 = g.lastLoadDst // pointer chase: depend on previous load
			}
			g.lastLoadDst = in.Dst
		}
	case cls == trace.Branch:
		site := g.pcIndex % g.b.BranchSites
		in.BranchID = uint16(g.b.CodeID*1024 + site)
		in.Taken = g.rng.BoolT(g.takenT[site])
	}

	g.count++
	g.remaining--
	g.pcIndex++
	if g.pcIndex == g.codeInstrs {
		g.pcIndex = 0
	}
}
