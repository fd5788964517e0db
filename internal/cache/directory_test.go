package cache

import (
	"math/bits"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/prng"
)

// refHierarchy is the reference for Hierarchy's data path: the same
// caches and coherence rules, with a plain Go map as the directory instead
// of the open-addressing table. The differential test below drives both
// with identical traffic and requires identical latencies, levels and
// counters.
type refHierarchy struct {
	cfg       arch.Config
	lineShift uint

	l1d, l2 []*Cache
	llc     *Cache

	dir          map[uint64]dirEntry
	invalidation []uint64
	probes       uint64
}

func newRef(cfg arch.Config) *refHierarchy {
	r := &refHierarchy{
		cfg:          cfg,
		lineShift:    uint(bits.Len(uint(cfg.L1D.LineBytes)) - 1),
		llc:          New(cfg.LLC),
		dir:          make(map[uint64]dirEntry),
		invalidation: make([]uint64, cfg.Cores),
	}
	for c := 0; c < cfg.Cores; c++ {
		r.l1d = append(r.l1d, New(cfg.L1D))
		r.l2 = append(r.l2, New(cfg.L2))
	}
	return r
}

func (h *refHierarchy) accessData(core int, addr uint64, write bool) (int, Level) {
	line := addr >> h.lineShift
	if !write {
		if hit, _, _ := h.l1d[core].Access(line); hit {
			return h.cfg.L1D.HitLatency, LevelL1
		}
		if hit, _, _ := h.l2[core].Access(line); hit {
			return h.cfg.L2.HitLatency, LevelL2
		}
	}
	h.probes++
	e := h.dir[line]
	remote := false
	if op := e.ownerP(); op != 0 && int(op-1) != core {
		remote = true
		e = dirEntry(e.sharers())
	}
	if write {
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
	h.dir[line] = e
	if write {
		if hit, _, _ := h.l1d[core].Access(line); hit && !remote {
			return h.cfg.L1D.HitLatency, LevelL1
		}
		if hit, _, _ := h.l2[core].Access(line); hit && !remote {
			return h.cfg.L2.HitLatency, LevelL2
		}
	}
	hitLLC, _, _ := h.llc.Access(line)
	if remote {
		return h.cfg.LLC.HitLatency + remoteTransferPenalty, LevelRemote
	}
	if hitLLC {
		return h.cfg.LLC.HitLatency, LevelLLC
	}
	return h.cfg.MemLatency, LevelMem
}

// dataOp is one data access of a differential input.
type dataOp struct {
	core  int
	addr  uint64
	write bool
}

// randomTraffic is mostly-private regions per core plus a contended shared
// region, read- and write-heavy.
func randomTraffic(cores, n int) []dataOp {
	r := prng.New(7)
	ops := make([]dataOp, 0, n)
	for i := 0; i < n; i++ {
		core := int(r.Uint64n(uint64(cores)))
		var addr uint64
		switch r.Uint64n(10) {
		case 0, 1: // shared region, heavily contended
			addr = 1<<30 + r.Uint64n(1<<12)<<6
		case 2: // shared region, sparse
			addr = 1<<31 + r.Uint64n(1<<18)<<6
		default: // private region per core
			addr = uint64(core+1)<<40 + r.Uint64n(1<<14)<<6
		}
		ops = append(ops, dataOp{core, addr, r.Uint64n(3) == 0})
	}
	return ops
}

// ownedStores is runs of repeated stores by a core to lines it already
// owns, with an occasional access by another core in between that takes
// ownership or downgrades the owner to shared.
func ownedStores(cores, n int) []dataOp {
	r := prng.New(11)
	ops := make([]dataOp, 0, n)
	for len(ops) < n {
		core := r.Intn(cores)
		addr := uint64(core+1)<<40 + r.Uint64n(64)<<6
		for k := 1 + r.Intn(16); k > 0; k-- {
			ops = append(ops, dataOp{core, addr, true})
		}
		if r.Intn(4) == 0 {
			ops = append(ops, dataOp{r.Intn(cores), addr, r.Intn(2) == 0})
		}
	}
	return ops
}

// topOfAddressSpace touches the last line of the address space ((1<<58)-1
// with 64-byte lines): a remote write, shared reads, a re-own and a
// downgrade.
func topOfAddressSpace() []dataOp {
	const addr = ^uint64(0) &^ 63
	return []dataOp{{1, addr, true}, {0, addr, false}, {0, addr, false}, {0, addr, true}, {1, addr, false}}
}

// TestDirectoryDifferential drives the hierarchy and the reference with
// identical multicore traffic and requires access-for-access identical
// behaviour, invalidation counts and directory probe counts.
func TestDirectoryDifferential(t *testing.T) {
	cfg := arch.Base()
	n := 300000
	if testing.Short() {
		n = 60000
	}
	inputs := []struct {
		name string
		ops  []dataOp
	}{
		{"random", randomTraffic(cfg.Cores, n)},
		{"owned-stores", ownedStores(cfg.Cores, n)},
		{"top-of-address-space", topOfAddressSpace()},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			h := NewHierarchy(cfg)
			ref := newRef(cfg)
			for i, op := range in.ops {
				lat, lvl := h.AccessData(op.core, op.addr, op.write)
				wlat, wlvl := ref.accessData(op.core, op.addr, op.write)
				if lat != wlat || lvl != wlvl {
					t.Fatalf("access %d (core %d addr %#x write %v): got %d@%v, reference %d@%v",
						i, op.core, op.addr, op.write, lat, lvl, wlat, wlvl)
				}
			}
			for c := 0; c < cfg.Cores; c++ {
				if h.Invalidations(c) != ref.invalidation[c] {
					t.Fatalf("core %d invalidations: got %d, reference %d",
						c, h.Invalidations(c), ref.invalidation[c])
				}
			}
			if h.DirProbes() != ref.probes {
				t.Fatalf("directory probes: got %d, reference %d", h.DirProbes(), ref.probes)
			}
		})
	}
}
