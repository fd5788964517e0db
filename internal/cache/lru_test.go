package cache

import (
	"testing"

	"rppm/internal/arch"
	"rppm/internal/prng"
)

// TestMRUFastPathMatchesAccess drives two mirrored hierarchies with the
// same access stream; one routes loads and fetches through the
// LoadMRU/InstrMRU fast paths first (falling back to the full path on
// false, exactly as the simulator does), the other always takes the full
// path. Latencies, serving levels, counters and coherence behavior must
// be identical — the fast path is a pure shortcut.
func TestMRUFastPathMatchesAccess(t *testing.T) {
	t.Run("default", testMRUFastPath)
}

func testMRUFastPath(t *testing.T) {
	cfg := arch.Base()
	fast := NewHierarchy(cfg)
	ref := NewHierarchy(cfg)
	r := prng.New(99)
	// Mix of private and shared lines across cores, reads and writes and
	// instruction fetches, with enough reuse for the MRU path to fire often.
	for i := 0; i < 60000; i++ {
		core := r.Intn(cfg.Cores)
		addr := r.Uint64n(1<<14) * 8 // 16 KiB footprint: heavy L1 reuse
		if r.Intn(8) == 0 {
			addr = 1<<20 + r.Uint64n(1<<18)*64 // colder shared region
		}
		switch r.Intn(4) {
		case 0: // instruction fetch
			pc := 1<<30 + addr
			if !fast.InstrMRU(core, pc) {
				fast.AccessInstr(core, pc)
			}
			ref.AccessInstr(core, pc)
		case 1: // write
			fast.AccessData(core, addr, true)
			ref.AccessData(core, addr, true)
		default: // read
			var lat int
			var lvl Level
			if fast.LoadMRU(core, addr) {
				lat, lvl = cfg.L1D.HitLatency, LevelL1
			} else {
				lat, lvl = fast.AccessData(core, addr, false)
			}
			wantLat, wantLvl := ref.AccessData(core, addr, false)
			if lat != wantLat || lvl != wantLvl {
				t.Fatalf("op %d: read core %d addr %#x = (%d,%v), ref (%d,%v)",
					i, core, addr, lat, lvl, wantLat, wantLvl)
			}
		}
	}
	for core := 0; core < cfg.Cores; core++ {
		got, want := fast.Served(core), ref.Served(core)
		for lvl := range got {
			if got[lvl] != want[lvl] {
				t.Fatalf("core %d level %s: served %d, ref %d",
					core, Level(lvl), got[lvl], want[lvl])
			}
		}
		if fast.Invalidations(core) != ref.Invalidations(core) {
			t.Fatalf("core %d: invalidations differ", core)
		}
	}
}
