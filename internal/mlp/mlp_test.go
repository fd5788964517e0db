package mlp

import (
	"math"
	"testing"

	"rppm/internal/profiler"
	"rppm/internal/trace"
)

// loadsWindow builds a window of n loads; chain[i] gives the index each load
// depends on (-1 independent); rd[i] is the global reuse distance.
func loadsWindow(chain []int, rd []int64) profiler.Window {
	w := profiler.Window{}
	for i := range chain {
		w.Classes = append(w.Classes, trace.Load)
		w.Dep1 = append(w.Dep1, int16(chain[i]))
		w.Dep2 = append(w.Dep2, -1)
		w.GlobalRD = append(w.GlobalRD, rd[i])
		w.IsLoad = append(w.IsLoad, true)
	}
	return w
}

// missAll is the critical reuse distance at which every load misses.
const missAll = 0

func TestIndependentMissesFullMLP(t *testing.T) {
	// 8 independent missing loads in one ROB window: MLP = 8.
	chain := make([]int, 8)
	rd := make([]int64, 8)
	for i := range chain {
		chain[i] = -1
		rd[i] = 1 << 30
	}
	got, n := Compute([]profiler.Window{loadsWindow(chain, rd)}, 128, 16, missAll)
	if n != 8 {
		t.Fatalf("misses = %d, want 8", n)
	}
	if math.Abs(got-8) > 1e-9 {
		t.Fatalf("MLP = %v, want 8", got)
	}
}

func TestPointerChaseSerializes(t *testing.T) {
	// 8 loads each depending on the previous: a single chain, MLP = 1.
	chain := []int{-1, 0, 1, 2, 3, 4, 5, 6}
	rd := make([]int64, 8)
	got, _ := Compute([]profiler.Window{loadsWindow(chain, rd)}, 128, 16, missAll)
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("pointer chase MLP = %v, want 1", got)
	}
}

func TestTwoChains(t *testing.T) {
	// Two independent chains of length 2: 4 misses, longest chain 2, MLP 2.
	chain := []int{-1, -1, 0, 1}
	rd := make([]int64, 4)
	got, _ := Compute([]profiler.Window{loadsWindow(chain, rd)}, 128, 16, missAll)
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("two-chain MLP = %v, want 2", got)
	}
}

func TestROBWindowLimitsOverlap(t *testing.T) {
	// 16 independent misses, but a ROB of 4 holds only 4 at a time.
	chain := make([]int, 16)
	rd := make([]int64, 16)
	for i := range chain {
		chain[i] = -1
	}
	got, _ := Compute([]profiler.Window{loadsWindow(chain, rd)}, 4, 16, missAll)
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("ROB-limited MLP = %v, want 4", got)
	}
}

func TestMSHRCap(t *testing.T) {
	chain := make([]int, 32)
	rd := make([]int64, 32)
	for i := range chain {
		chain[i] = -1
	}
	got, _ := Compute([]profiler.Window{loadsWindow(chain, rd)}, 128, 5, missAll)
	if got != 5 {
		t.Fatalf("MSHR-capped MLP = %v, want 5", got)
	}
}

func TestHitsDoNotCount(t *testing.T) {
	chain := []int{-1, -1, -1, -1}
	rd := []int64{10, 1 << 30, 10, 1 << 30}
	got, n := Compute([]profiler.Window{loadsWindow(chain, rd)}, 128, 16, 1001)
	if n != 2 {
		t.Fatalf("misses = %d, want 2", n)
	}
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("MLP = %v, want 2", got)
	}
}

func TestNoMissesReturnsOne(t *testing.T) {
	chain := []int{-1, -1}
	rd := []int64{1, 1}
	got, n := Compute([]profiler.Window{loadsWindow(chain, rd)}, 128, 16, math.Inf(1))
	if got != 1 || n != 0 {
		t.Fatalf("MLP = %v misses = %d, want 1 and 0", got, n)
	}
}

func TestDependenceThroughALU(t *testing.T) {
	// load -> ALU -> load: the second load transitively depends on the
	// first, so the misses serialize even though there is no direct edge.
	w := profiler.Window{
		Classes:  []trace.Class{trace.Load, trace.IntALU, trace.Load},
		Dep1:     []int16{-1, 0, 1},
		Dep2:     []int16{-1, -1, -1},
		GlobalRD: []int64{1 << 30, -1, 1 << 30},
		IsLoad:   []bool{true, false, true},
	}
	got, _ := Compute([]profiler.Window{w}, 128, 16, missAll)
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("transitive chain MLP = %v, want 1", got)
	}
}

func TestEmptyWindows(t *testing.T) {
	got, n := Compute(nil, 128, 16, missAll)
	if got != 1 || n != 0 {
		t.Fatalf("empty MLP = %v misses = %d", got, n)
	}
}
