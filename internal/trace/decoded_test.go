package trace_test

import (
	"testing"

	"rppm/internal/trace"
	"rppm/internal/workload"
)

// drainDecoded collects a decoded thread through its zero-copy column
// windows, reassembling Items for comparison with the ReplayCursor view.
func drainDecoded(t *testing.T, c *trace.DecodedCursor) []trace.Item {
	t.Helper()
	var cols trace.Columns
	var out []trace.Item
	for {
		n := c.NextColumns(&cols)
		for i := 0; i < n; i++ {
			out = append(out, trace.InstrItem(trace.Instr{
				Class:    cols.Class[i],
				Dst:      cols.Dst[i],
				Src1:     cols.Src1[i],
				Src2:     cols.Src2[i],
				Addr:     cols.Addr[i],
				PC:       cols.PC[i],
				BranchID: cols.BranchID[i],
				Taken:    cols.Taken[i],
			}))
		}
		ev, ok := c.TakeSync()
		if !ok {
			if n == 0 {
				return out
			}
			continue
		}
		out = append(out, trace.SyncItem(ev))
	}
}

// TestDecodedMatchesReplay: the shared-decode view must be item-for-item
// identical to cursor replay, through both the column and the Item
// interfaces. The inputs cover the edge-case program (absolute PC
// re-bases, wide escapes, extended syncs), suite benchmarks, and outside
// -short a registry family entry at its registry scale, large enough to
// cross the engine's config-batching gate.
func TestDecodedMatchesReplay(t *testing.T) {
	progs := []trace.Program{edgeCaseProgram()}
	names := []string{"kmeans", "streamcluster", "canneal"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		bm, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, bm.Build(1, 0.05))
	}
	if !testing.Short() {
		reg, err := workload.DefaultSuites()
		if err != nil {
			t.Fatal(err)
		}
		e, ok := reg.ByName("pipeline")
		if !ok {
			t.Fatal("registry has no pipeline entry")
		}
		bm, err := e.Benchmark()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, bm.Build(e.Seed, e.Scale))
	}
	for _, p := range progs {
		rec, err := trace.Record(p)
		if err != nil {
			t.Fatalf("Record(%s): %v", p.Name(), err)
		}
		dec := trace.Decode(rec)
		if dec.Name() != rec.Name() || dec.NumThreads() != rec.NumThreads() {
			t.Fatalf("decoded identity mismatch: %s/%d", dec.Name(), dec.NumThreads())
		}
		if dec.DataLineBound() != rec.DataLineBound() {
			t.Fatalf("DataLineBound: decoded %d, recorded %d", dec.DataLineBound(), rec.DataLineBound())
		}
		for tid := 0; tid < rec.NumThreads(); tid++ {
			want := drain(t, rec.Replay(tid), []int{256})
			forms := map[string][]trace.Item{
				"columns": drainDecoded(t, dec.Thread(tid).(*trace.DecodedCursor)),
				"items":   drain(t, dec.Thread(tid), []int{1, 3, 256}),
			}
			for form, got := range forms {
				if len(got) != len(want) {
					t.Fatalf("%s thread %d (%s): %d items, want %d",
						p.Name(), tid, form, len(got), len(want))
				}
				for i := range want {
					if !itemsEqual(got[i], want[i]) {
						t.Fatalf("%s thread %d item %d (%s):\n decoded %+v\n replay  %+v",
							p.Name(), tid, i, form, got[i], want[i])
					}
				}
			}
		}
	}
}
