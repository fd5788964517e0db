// Package cache implements the memory hierarchy of the cycle-level
// reference simulator: set-associative LRU caches, a private L1I/L1D/L2
// per core, a shared last-level cache, and MESI-style write-invalidation
// coherence tracked by a directory.
//
// This is the detailed counterpart of the analytical StatStack model: where
// internal/statstack predicts miss rates statistically from reuse-distance
// distributions, this package actually moves lines in and out of finite
// sets, so simulator-vs-model discrepancies reflect genuine modeling error
// (associativity conflicts, real interleaving, real invalidations).
package cache

import (
	"math/bits"

	"rppm/internal/arch"
	"rppm/internal/hashmap"
)

// Tags are stored biased by one (slot value = line address + 1) so the
// zero value marks an empty way: a fresh tag array needs no
// initialization pass, which matters because a design-space sweep builds
// a full hierarchy (megabytes of tag arrays) per simulated configuration.
// Line addresses are byte addresses shifted right by the line size, so
// the bias can never wrap a real line to zero.

// Cache is one set-associative LRU cache level. All sets live in one flat
// tag array, one contiguous run of ways per set (one or two cache lines of
// host memory), and the whole cache is a single allocation.
//
// Recency lives inside the tag row itself: tags within a set are ordered
// most- to least-recently used and a hit is memmoved to the front, so
// slot 0 is always the MRU. A separate per-set rank word would avoid the
// memmove, but every access would then touch a second, often-cold host
// cache line; measured on this suite's scattered access patterns that
// costs more than the memmove it saves.
type Cache struct {
	ways    int
	setMask uint64
	tags    []uint64 // len = sets*ways; tags[s*ways : (s+1)*ways]; biased by +1, 0 = empty

	hits, misses uint64
}

// New builds a cache from a level configuration. Addresses are indexed at
// line granularity: callers pass line addresses (byte address >> log2(line)).
func New(cfg arch.CacheConfig) *Cache {
	sets := cfg.Sets()
	c := &Cache{
		ways:    cfg.Assoc,
		setMask: uint64(sets - 1),
	}
	if sets&(sets-1) != 0 {
		// Round down to a power of two; configs produced by internal/arch
		// are always powers of two, this is belt-and-braces for tests.
		p := 1 << uint(bits.Len(uint(sets))-1)
		c.setMask = uint64(p - 1)
		sets = p
	}
	c.tags = make([]uint64, sets*cfg.Assoc) // zero = empty, by the tag bias
	return c
}

// set returns the tag slice of the set holding lineAddr, ordered MRU
// first.
func (c *Cache) set(lineAddr uint64) []uint64 {
	base := int(lineAddr&c.setMask) * c.ways
	return c.tags[base : base+c.ways]
}

// Access looks up a line address, updates LRU state and inserts the line on
// a miss (evicting the LRU way). It returns whether the access hit and, on
// miss, the evicted line address (victim) and whether a valid line was
// evicted.
func (c *Cache) Access(lineAddr uint64) (hit bool, victim uint64, evicted bool) {
	set := c.set(lineAddr)
	tag := lineAddr + 1
	for i, t := range set {
		if t == tag {
			// Move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = tag
			c.hits++
			return true, 0, false
		}
	}
	c.misses++
	last := c.ways - 1
	victim, evicted = set[last]-1, set[last] != 0
	if !evicted {
		victim = 0
	}
	copy(set[1:], set[:last])
	set[0] = tag
	return false, victim, evicted
}

// Contains reports whether the line is present without touching LRU state.
func (c *Cache) Contains(lineAddr uint64) bool {
	for _, t := range c.set(lineAddr) {
		if t == lineAddr+1 {
			return true
		}
	}
	return false
}

// Invalidate removes the line if present and reports whether it was present.
func (c *Cache) Invalidate(lineAddr uint64) bool {
	set := c.set(lineAddr)
	for i, t := range set {
		if t == lineAddr+1 {
			set[i] = 0
			return true
		}
	}
	return false
}

// Stats returns the hit and miss counts since creation.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.tags) / c.ways }

// Level identifies where in the hierarchy an access was served.
type Level int

// Hierarchy levels, ordered by distance from the core.
const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
	LevelRemote // dirty line transferred from another core's private cache
	LevelMem
	NumLevels = int(LevelMem) + 1
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelRemote:
		return "remote"
	case LevelMem:
		return "mem"
	}
	return "?"
}

// dirEntry is the packed per-line directory state: the low 32 bits are the
// sharer core bitmask, the high 32 bits hold the dirty owner's core id
// plus one (0 = clean). One open-addressing probe reads and updates both.
type dirEntry uint64

func (d dirEntry) sharers() uint32 { return uint32(d) }
func (d dirEntry) ownerP() uint32  { return uint32(d >> 32) }

// Hierarchy is the full multicore memory system.
type Hierarchy struct {
	cfg       arch.Config
	lineShift uint

	l1i, l1d, l2 []*Cache
	llc          *Cache

	// Directory state, line-granular: which cores hold a copy, and which
	// core (if any) holds it modified.
	dir hashmap.Map[dirEntry]

	dirProbes uint64

	// Counters per core and level, for CPI-stack accounting and MPKI,
	// flattened to served[core*NumLevels+level] so the per-access increment
	// is one indexed add.
	served       []uint64
	invalidation []uint64 // invalidations received per core
}

// remoteTransferPenalty is the extra latency (beyond an LLC hit) of pulling
// a modified line out of another core's private cache.
const remoteTransferPenalty = 18

// NewHierarchy builds the hierarchy for a validated configuration.
func NewHierarchy(cfg arch.Config) *Hierarchy { return NewHierarchyHinted(cfg, 0) }

// NewHierarchyHinted builds the hierarchy with the workload's distinct
// data-line count (0 = unknown). The hint pre-sizes the coherence
// directory: replayed traces know their footprint exactly, so sweep
// simulations skip every directory rehash a growing table would pay.
func NewHierarchyHinted(cfg arch.Config, dataLines int) *Hierarchy {
	if dataLines < 8192 {
		// Near a typical touched-line count: skips the early rehash
		// doublings even without a hint.
		dataLines = 8192
	}
	h := &Hierarchy{
		cfg:          cfg,
		lineShift:    uint(bits.Len(uint(cfg.L1D.LineBytes)) - 1),
		llc:          New(cfg.LLC),
		served:       make([]uint64, cfg.Cores*NumLevels),
		invalidation: make([]uint64, cfg.Cores),
		dir:          *hashmap.New[dirEntry](dataLines),
	}
	for c := 0; c < cfg.Cores; c++ {
		h.l1i = append(h.l1i, New(cfg.L1I))
		h.l1d = append(h.l1d, New(cfg.L1D))
		h.l2 = append(h.l2, New(cfg.L2))
	}
	return h
}

// Line returns the line address of a byte address.
func (h *Hierarchy) Line(addr uint64) uint64 { return addr >> h.lineShift }

// AccessData performs a data access by core at byte address addr and returns
// the load-to-use latency in cycles and the level that served it.
func (h *Hierarchy) AccessData(core int, addr uint64, write bool) (latency int, level Level) {
	line := h.Line(addr)

	// Fast path: a read that hits this core's private L1D or L2 needs no
	// directory work. A privately-resident line already carries this
	// core's sharer bit (set when the line was filled, cleared only by a
	// remote write that also invalidates both private levels) and cannot
	// be dirty in another cache (that write would likewise have
	// invalidated it), so the directory update a read performs would be a
	// no-op — skipping the probe is state- and counter-identical. The
	// core's own lookups are independent of the directory, so performing
	// them first does not reorder anything observable. (The invariant
	// assumes instruction and data lines do not alias — instruction fills
	// enter L2 without directory updates — which holds for every workload:
	// the generators place code and data in disjoint address regions.)
	var hitL1, hitL2 bool
	if !write {
		hitL1, _, _ = h.l1d[core].Access(line)
		if hitL1 {
			h.served[core*NumLevels+int(LevelL1)]++
			return h.cfg.L1D.HitLatency, LevelL1
		}
		hitL2, _, _ = h.l2[core].Access(line)
		if hitL2 {
			h.served[core*NumLevels+int(LevelL2)]++
			return h.cfg.L2.HitLatency, LevelL2
		}
	}

	// Coherence: a write invalidates every other core's private copies; a
	// read of a line that is dirty in another private cache triggers a
	// remote transfer (and downgrades the owner's copy to shared). The
	// packed directory entry resolves owner and sharers in one probe.
	h.dirProbes++
	d := h.dir.Ref(line)
	e := *d
	remote := false
	if op := e.ownerP(); op != 0 && int(op-1) != core {
		remote = true
		e = dirEntry(e.sharers()) // downgrade: clear the owner
	}
	if write {
		// Invalidate every other sharer, walking only the set bits.
		for m := e.sharers() &^ (1 << uint(core)); m != 0; m &= m - 1 {
			c := bits.TrailingZeros32(m)
			inv := h.l1d[c].Invalidate(line)
			if h.l2[c].Invalidate(line) || inv {
				h.invalidation[c]++
			}
		}
		e = dirEntry(1<<uint(core)) | dirEntry(core+1)<<32
	} else {
		e |= dirEntry(1) << uint(core)
	}
	*d = e

	// Private-cache fills for writes, then LLC and memory.
	if write {
		hitL1, _, _ = h.l1d[core].Access(line)
		if hitL1 && !remote {
			h.served[core*NumLevels+int(LevelL1)]++
			return h.cfg.L1D.HitLatency, LevelL1
		}
		hitL2, _, _ = h.l2[core].Access(line)
		if hitL2 && !remote {
			h.served[core*NumLevels+int(LevelL2)]++
			return h.cfg.L2.HitLatency, LevelL2
		}
	}
	hitLLC, _, _ := h.llc.Access(line)
	if remote {
		h.served[core*NumLevels+int(LevelRemote)]++
		return h.cfg.LLC.HitLatency + remoteTransferPenalty, LevelRemote
	}
	if hitLLC {
		h.served[core*NumLevels+int(LevelLLC)]++
		return h.cfg.LLC.HitLatency, LevelLLC
	}
	h.served[core*NumLevels+int(LevelMem)]++
	return h.cfg.MemLatency, LevelMem
}

// DirProbes returns the number of data accesses that probed the coherence
// directory: every access except private-cache read hits.
func (h *Hierarchy) DirProbes() uint64 { return h.dirProbes }

// LoadMRU is the inlineable fast path for the commonest data access of
// all: a read that hits the most-recently-used way of the core's L1D set.
// When it returns true the access has been fully performed — hit and
// served counters advanced, recency unchanged (the line already holds the
// MRU slot), no directory state touched (AccessData's read path skips the
// directory for every private hit anyway) — and the caller charges
// L1D.HitLatency. On false, nothing was touched and the caller must take
// the full AccessData path. Flat enough for the compiler to inline into
// the simulator's per-instruction step, which is the point: the call and
// the tag-scan loop disappear from the dominant case.
func (h *Hierarchy) LoadMRU(core int, addr uint64) bool {
	c := h.l1d[core]
	line := addr >> h.lineShift
	set := line & c.setMask
	if c.tags[int(set)*c.ways] != line+1 {
		return false
	}
	c.hits++
	h.served[core*NumLevels]++ // LevelL1 == 0
	return true
}

// InstrMRU is LoadMRU for the instruction side: a fetch that hits the MRU
// way of the core's L1I set. True means the fetch was performed (an L1I
// hit adds no latency, so there is nothing to charge); false means
// untouched, take AccessInstr.
func (h *Hierarchy) InstrMRU(core int, pc uint64) bool {
	c := h.l1i[core]
	line := pc >> h.lineShift
	set := line & c.setMask
	if c.tags[int(set)*c.ways] != line+1 {
		return false
	}
	c.hits++
	h.served[core*NumLevels]++ // LevelL1 == 0
	return true
}

// AccessInstr performs an instruction fetch by core at byte address pc.
func (h *Hierarchy) AccessInstr(core int, pc uint64) (latency int, level Level) {
	line := h.Line(pc)
	if hit, _, _ := h.l1i[core].Access(line); hit {
		h.served[core*NumLevels+int(LevelL1)]++
		return 0, LevelL1 // overlapped with decode; no added latency
	}
	if hit, _, _ := h.l2[core].Access(line); hit {
		h.served[core*NumLevels+int(LevelL2)]++
		return h.cfg.L2.HitLatency, LevelL2
	}
	if hit, _, _ := h.llc.Access(line); hit {
		h.served[core*NumLevels+int(LevelLLC)]++
		return h.cfg.LLC.HitLatency, LevelLLC
	}
	h.served[core*NumLevels+int(LevelMem)]++
	return h.cfg.MemLatency, LevelMem
}

// Served returns per-level access counts for a core.
func (h *Hierarchy) Served(core int) []uint64 {
	out := make([]uint64, NumLevels)
	copy(out, h.served[core*NumLevels:(core+1)*NumLevels])
	return out
}

// Invalidations returns the number of coherence invalidations received by a
// core's private caches.
func (h *Hierarchy) Invalidations(core int) uint64 { return h.invalidation[core] }
