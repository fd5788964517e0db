package workload

import (
	"testing"
	"testing/quick"

	"rppm/internal/trace"
)

func TestSuiteComplete(t *testing.T) {
	suite := Suite()
	if len(suite) != 26 {
		t.Fatalf("suite has %d benchmarks, want 26", len(suite))
	}
	rodinia, parsec := 0, 0
	for _, b := range suite {
		switch b.Kind {
		case Rodinia:
			rodinia++
		case Parsec:
			parsec++
		}
	}
	if rodinia != 16 || parsec != 10 {
		t.Fatalf("got %d rodinia + %d parsec, want 16 + 10", rodinia, parsec)
	}
}

// TestSuiteNamesUnique: benchmarks are resolved and cached by name, so
// two builtins sharing one would make one of them unreachable and let the
// engine serve one program's results for the other.
func TestSuiteNamesUnique(t *testing.T) {
	seen := make(map[string]SuiteKind)
	for _, b := range Suite() {
		if kind, ok := seen[b.Name]; ok {
			t.Errorf("benchmark name %q used by suites %v and %v", b.Name, kind, b.Kind)
		}
		seen[b.Name] = b.Kind
	}
}

// next emits one instruction from g; callers check done() first.
func (g *blockGen) next() trace.Instr {
	var in trace.Instr
	g.emit(&in)
	return in
}

func TestSuiteValidates(t *testing.T) {
	for _, b := range Suite() {
		p := b.Build(1, 0.05)
		if err := Validate(p); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestRodiniaOnlyBarriers(t *testing.T) {
	// The paper: "the Rodinia benchmarks only feature barrier
	// synchronization" (plus create/join/exit structure).
	for _, b := range Suite() {
		if b.Kind != Rodinia {
			continue
		}
		p := b.Build(1, 0.05)
		for tid := 0; tid < p.NumThreads(); tid++ {
			s := p.Thread(tid)
			for {
				it, ok := s.Next()
				if !ok {
					break
				}
				if !it.IsSync {
					continue
				}
				switch it.Sync.Kind {
				case trace.SyncBarrier, trace.SyncThreadCreate, trace.SyncThreadJoin, trace.SyncThreadExit:
				default:
					t.Fatalf("%s thread %d has non-barrier sync %v", b.Name, tid, it.Sync)
				}
			}
		}
	}
}

func TestStreamsAreRestartable(t *testing.T) {
	bm, err := ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	p := bm.Build(7, 0.05)
	a := p.Thread(1)
	b := p.Thread(1)
	for i := 0; ; i++ {
		ia, oka := a.Next()
		ib, okb := b.Next()
		if oka != okb {
			t.Fatalf("streams ended at different positions (item %d)", i)
		}
		if !oka {
			break
		}
		if ia != ib {
			t.Fatalf("streams differ at item %d: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestSeedChangesInstructionStream(t *testing.T) {
	bm, _ := ByName("cfd")
	p1 := bm.Build(1, 0.05)
	p2 := bm.Build(2, 0.05)
	s1, s2 := p1.Thread(1), p2.Thread(1)
	diff := false
	for i := 0; i < 1000; i++ {
		i1, ok1 := s1.Next()
		i2, ok2 := s2.Next()
		if !ok1 || !ok2 {
			break
		}
		if i1 != i2 {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestScaleReducesInstructionCount(t *testing.T) {
	bm, _ := ByName("hotspot")
	big := bm.Build(1, 0.2)
	small := bm.Build(1, 0.05)
	nb := big.TotalInstructions()
	ns := small.TotalInstructions()
	if ns >= nb {
		t.Fatalf("scale 0.05 has %d instrs, scale 0.2 has %d", ns, nb)
	}
	ratio := float64(nb) / float64(ns)
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("instruction ratio %v, want ~4", ratio)
	}
}

func TestBlockGenProperties(t *testing.T) {
	blk := Block{N: 5000, Mix: MixInt(), PrivateBytes: 1 * MB, SharedBytes: 1 * MB, SharedFrac: 0.3}
	g := newBlockGen(blk, 2, 5000, 99)
	loads, stores, branches := 0, 0, 0
	for !g.done() {
		in := g.next()
		if in.Class.IsMem() {
			if in.Addr%lineBytes != 0 {
				t.Fatal("memory address not line-aligned")
			}
			inPriv := in.Addr >= privateBase+2*privateSpan && in.Addr < privateBase+2*privateSpan+blk.PrivateBytes
			inShared := in.Addr >= sharedBase && in.Addr < sharedBase+blk.SharedBytes
			if !inPriv && !inShared {
				t.Fatalf("address %#x outside both regions", in.Addr)
			}
		}
		switch in.Class {
		case trace.Load:
			loads++
		case trace.Store:
			stores++
		case trace.Branch:
			branches++
		}
		if in.Dst < 0 || in.Dst >= trace.NumRegs {
			t.Fatalf("bad dst register %d", in.Dst)
		}
	}
	// MixInt: ~25% loads, ~12% stores, ~19% branches.
	if loads < 1000 || loads > 1600 {
		t.Errorf("loads = %d, want ~1250", loads)
	}
	if stores < 400 || stores > 850 {
		t.Errorf("stores = %d, want ~600", stores)
	}
	if branches < 700 || branches > 1200 {
		t.Errorf("branches = %d, want ~950", branches)
	}
}

func TestDependenceDistancesBounded(t *testing.T) {
	g := newBlockGen(Block{N: 2000, Mix: MixInt(), DepMean: 8}, 0, 2000, 3)
	idx := 0
	lastWriter := map[int8]int{}
	for !g.done() {
		in := g.next()
		for _, src := range []int8{in.Src1, in.Src2} {
			if src < 0 {
				continue
			}
			w, ok := lastWriter[src]
			if ok && idx-w >= trace.NumRegs {
				t.Fatalf("dependence distance %d >= NumRegs", idx-w)
			}
		}
		lastWriter[in.Dst] = idx
		idx++
	}
}

func TestBranchSiteDeterminism(t *testing.T) {
	// The same static site must keep its bias across generator instances.
	blk := Block{N: 3000, Mix: MixInt(), BranchSites: 8, BranchBias: 0.9}
	count := func(seed uint64) map[uint16]int {
		g := newBlockGen(blk, 0, 3000, seed)
		taken := map[uint16]int{}
		for !g.done() {
			in := g.next()
			if in.Class == trace.Branch && in.Taken {
				taken[in.BranchID]++
			}
		}
		return taken
	}
	a := count(5)
	if len(a) == 0 {
		t.Fatal("no branches generated")
	}
}

func TestBarrierLoopStructure(t *testing.T) {
	p := BarrierLoop(4, 10, 100, 1)
	if err := Validate(p); err != nil {
		t.Fatal(err)
	}
	// Every thread should see exactly 10 barrier events.
	for tid := 0; tid < 4; tid++ {
		s := p.Thread(tid)
		barriers := 0
		for {
			it, ok := s.Next()
			if !ok {
				break
			}
			if it.IsSync && it.Sync.Kind == trace.SyncBarrier {
				barriers++
				if it.Sync.Arg != 4 {
					t.Fatalf("barrier participant count = %d, want 4", it.Sync.Arg)
				}
			}
		}
		if barriers != 10 {
			t.Fatalf("thread %d saw %d barriers, want 10", tid, barriers)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted a bogus name")
	}
	b, err := ByName("fluidanimate")
	if err != nil || b.Name != "fluidanimate" {
		t.Fatalf("ByName(fluidanimate) = %v, %v", b.Name, err)
	}
}

func TestValidateCatchesBrokenPrograms(t *testing.T) {
	// Unmatched lock release.
	p := &Program{name: "broken", threads: [][]segment{{
		{isSync: true, ev: trace.Event{Kind: trace.SyncLockRelease, Obj: 1}},
		{isSync: true, ev: trace.Event{Kind: trace.SyncThreadExit}},
	}}}
	if err := Validate(p); err == nil {
		t.Fatal("Validate accepted an unmatched release")
	}
	// Missing exit.
	p2 := &Program{name: "broken2", threads: [][]segment{{
		{block: Block{N: 10}, n: 10, seed: 1},
	}}}
	if err := Validate(p2); err == nil {
		t.Fatal("Validate accepted a thread without exit")
	}
	// Worker never created.
	p3 := &Program{name: "broken3", threads: [][]segment{
		{{isSync: true, ev: trace.Event{Kind: trace.SyncThreadExit}}},
		{{isSync: true, ev: trace.Event{Kind: trace.SyncThreadExit}}},
	}}
	if err := Validate(p3); err == nil {
		t.Fatal("Validate accepted an orphan worker")
	}
}

func TestImbalanceBounds(t *testing.T) {
	f := func(tid, iter uint8, spread uint8) bool {
		s := float64(spread%50) / 100.0
		v := imbalance(int(tid), int(iter), s)
		return v >= 1-s-1e-9 && v <= 1+s+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWithDefaults(t *testing.T) {
	b := Block{N: 10}.withDefaults()
	if b.DepMean <= 0 || b.PrivateBytes == 0 || b.CodeLines <= 0 || b.BranchSites <= 0 {
		t.Fatalf("defaults not applied: %+v", b)
	}
	w := b.Mix.weights()
	total := 0.0
	for _, x := range w {
		total += x
	}
	if total == 0 {
		t.Fatal("default mix is empty")
	}
}

func TestTotalInstructionsPositive(t *testing.T) {
	for _, bm := range Suite() {
		p := bm.Build(1, 0.02)
		if n := p.TotalInstructions(); n < 1000 {
			t.Errorf("%s: only %d instructions at scale 0.02", bm.Name, n)
		}
	}
}

// BenchmarkBuildDrain measures building a suite program and draining
// every thread through NextBatch, as Record and the profiler do.
func BenchmarkBuildDrain(b *testing.B) {
	bm, _ := ByName("backprop")
	buf := make([]trace.Item, 256)
	for i := 0; i < b.N; i++ {
		p := bm.Build(1, 0.1)
		for tid := 0; tid < p.NumThreads(); tid++ {
			s := p.Thread(tid)
			for s.NextBatch(buf) != 0 {
			}
		}
	}
}

// TestNextBatchMatchesNext drains every thread of several suite benchmarks
// both one item at a time and through NextBatch with awkward buffer sizes,
// and requires identical item sequences — the bit-identity contract the
// batched profiler and simulator loops rest on.
func TestNextBatchMatchesNext(t *testing.T) {
	for _, name := range []string{"backprop", "blackscholes"} {
		bm, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := bm.Build(3, 0.02)
		for tid := 0; tid < p.NumThreads(); tid++ {
			var want []trace.Item
			s := p.Thread(tid)
			for {
				it, ok := s.Next()
				if !ok {
					break
				}
				want = append(want, it)
			}
			for _, bufSize := range []int{1, 7, 256} {
				bs := p.Thread(tid)
				var got []trace.Item
				buf := make([]trace.Item, bufSize)
				for {
					n := bs.NextBatch(buf)
					if n == 0 {
						break
					}
					got = append(got, buf[:n]...)
				}
				if len(got) != len(want) {
					t.Fatalf("%s t%d buf %d: %d items, want %d", name, tid, bufSize, len(got), len(want))
				}
				for i := range got {
					// Sync is unspecified on instruction items (the
					// ThreadStream contract), so compare per kind.
					same := got[i].IsSync == want[i].IsSync
					if same && want[i].IsSync {
						same = got[i].Sync == want[i].Sync
					} else if same {
						same = got[i].Instr == want[i].Instr
					}
					if !same {
						t.Fatalf("%s t%d buf %d: item %d differs: %+v vs %+v", name, tid, bufSize, i, got[i], want[i])
					}
				}
			}
		}
	}
}
