package trace

import "testing"

func TestClassStrings(t *testing.T) {
	for c := 0; c < NumClasses; c++ {
		if Class(c).String() == "" {
			t.Fatalf("class %d has empty name", c)
		}
	}
	if Class(200).String() == "" {
		t.Fatal("out-of-range class should still render")
	}
}

func TestExecLatencies(t *testing.T) {
	if Load.ExecLatency() != 0 {
		t.Fatal("load latency comes from the memory hierarchy")
	}
	if IntALU.ExecLatency() != 1 {
		t.Fatal("ALU latency should be 1")
	}
	if IntDiv.ExecLatency() <= IntMul.ExecLatency() {
		t.Fatal("divide should be slower than multiply")
	}
}

func TestIsMem(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() {
		t.Fatal("loads and stores are memory operations")
	}
	if IntALU.IsMem() || Branch.IsMem() {
		t.Fatal("ALU/branch are not memory operations")
	}
}

func TestEventStrings(t *testing.T) {
	e := Event{Kind: SyncBarrier, Obj: 3}
	if e.String() != "barrier(#3)" {
		t.Fatalf("event string = %q", e.String())
	}
	j := Event{Kind: SyncThreadJoin, Arg: 2}
	if j.String() != "thread-join(t2)" {
		t.Fatalf("join string = %q", j.String())
	}
	x := Event{Kind: SyncThreadExit}
	if x.String() != "thread-exit" {
		t.Fatalf("exit string = %q", x.String())
	}
}

func TestSliceProgram(t *testing.T) {
	p := &SliceProgram{
		ProgName: "toy",
		Threads: [][]Item{{
			InstrItem(Instr{Class: IntALU}),
			InstrItem(Instr{Class: Load}),
			SyncItem(Event{Kind: SyncThreadExit}),
		}},
	}
	if p.Name() != "toy" || p.NumThreads() != 1 {
		t.Fatal("program metadata wrong")
	}
	instrs, syncs := CountItems(p.Thread(0))
	if instrs != 2 || syncs != 1 {
		t.Fatalf("counted %d instrs, %d syncs", instrs, syncs)
	}
	// Streams restart.
	instrs2, _ := CountItems(p.Thread(0))
	if instrs2 != 2 {
		t.Fatal("stream did not restart")
	}
}

func TestSliceStreamExhaustion(t *testing.T) {
	s := NewSliceStream(nil)
	if _, ok := s.Next(); ok {
		t.Fatal("empty stream returned an item")
	}
	if n := s.NextBatch(make([]Item, 8)); n != 0 {
		t.Fatalf("empty stream batch-returned %d items", n)
	}
}

// batchItems drains a stream via NextBatch with the given buffer size.
func batchItems(s ThreadStream, bufSize int) []Item {
	var out []Item
	buf := make([]Item, bufSize)
	for {
		n := s.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// TestSliceStreamBatchMatchesNext: draining through NextBatch at any
// buffer size yields the item sequence Next does.
func TestSliceStreamBatchMatchesNext(t *testing.T) {
	items := []Item{
		InstrItem(Instr{Class: IntALU, Dst: 1}),
		InstrItem(Instr{Class: Load, Addr: 0x40, Dst: 2, Src1: 1}),
		SyncItem(Event{Kind: SyncBarrier, Obj: 1, Arg: 2}),
		InstrItem(Instr{Class: Branch, BranchID: 7, Taken: true}),
		SyncItem(Event{Kind: SyncThreadExit}),
	}
	var want []Item
	ref := NewSliceStream(items)
	for {
		it, ok := ref.Next()
		if !ok {
			break
		}
		want = append(want, it)
	}
	for _, bufSize := range []int{1, 2, 3, 16} {
		got := batchItems(NewSliceStream(items), bufSize)
		if len(got) != len(want) {
			t.Fatalf("bufSize %d: got %d items, want %d", bufSize, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("bufSize %d: item %d = %+v, want %+v", bufSize, i, got[i], want[i])
			}
		}
	}
}

// TestBatchNextInterleave checks that NextBatch and Next draw from the same
// position.
func TestBatchNextInterleave(t *testing.T) {
	items := []Item{
		InstrItem(Instr{Dst: 0}), InstrItem(Instr{Dst: 1}),
		InstrItem(Instr{Dst: 2}), InstrItem(Instr{Dst: 3}),
	}
	s := NewSliceStream(items)
	buf := make([]Item, 2)
	if n := s.NextBatch(buf); n != 2 || buf[0].Instr.Dst != 0 || buf[1].Instr.Dst != 1 {
		t.Fatalf("first batch wrong: n=%d buf=%+v", n, buf)
	}
	if it, ok := s.Next(); !ok || it.Instr.Dst != 2 {
		t.Fatalf("Next after batch = %+v, %v", it, ok)
	}
	if n := s.NextBatch(buf); n != 1 || buf[0].Instr.Dst != 3 {
		t.Fatalf("final batch wrong: n=%d buf=%+v", n, buf)
	}
}
