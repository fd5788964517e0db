package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"rppm/internal/obs"
	"rppm/internal/storefs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort a copy
	}
	return xs
}

func TestPercentileSelection(t *testing.T) {
	cases := []struct {
		n      int
		want   float64
		p, v   float64
		beyond int
	}{
		{1000, 99, 99, 990, 10}, // exactly ten beyond p99
		{999, 99, 95, 950, 49},  // p99 has nine beyond: fall back to p95
		{150, 99, 90, 135, 15},  // p95 has seven beyond
		{40, 99, 75, 30, 10},    // p90 has four beyond
		{25, 99, 50, 13, 12},    // only the median has ten beyond
		{5, 99, 50, 3, 2},       // too few for any: the median, flagged by Beyond
		{1000, 50, 50, 500, 500},
	}
	for _, c := range cases {
		xs := seq(c.n)
		got := percentile(xs, c.want)
		if got.P != c.p || got.Value != c.v || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d want p%g: got %+v, want p%g=%g with %d beyond", c.n, c.want, got, c.p, c.v, c.beyond)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("n=%d: percentile reordered its input", c.n)
		}
		if !strings.Contains(got.String(), "samples") {
			t.Errorf("report %q does not state the sample count", got)
		}
	}
	if got := percentile(nil, 99); got != (percentileSel{}) {
		t.Errorf("empty sample: got %+v", got)
	}
}

func TestKeySequenceDeterministic(t *testing.T) {
	keys := len(serveEntries) * serveSeedsPerEntry * 5
	const n = 20000
	a := newKeyGen(7, keys, serveTheta, serveSweepShare)
	b := newKeyGen(7, keys, serveTheta, serveSweepShare)
	c := newKeyGen(8, keys, serveTheta, serveSweepShare)
	counts := make([]int, keys)
	same, sweeps := 0, 0
	for i := uint64(0); i < n; i++ {
		ka, sa := a.at(i)
		kb, sb := b.at(i)
		if ka != kb || sa != sb || a.sampled(i, serveSampleN) != b.sampled(i, serveSampleN) {
			t.Fatalf("request %d differs between two generators with one seed", i)
		}
		if kc, _ := c.at(i); kc == ka {
			same++
		}
		if sa {
			sweeps++
		}
		counts[ka]++
	}
	// Out of order draws give the same answer: request i depends on i only.
	if k, s := a.at(12345); func() bool { k2, s2 := b.at(12345); return k != k2 || s != s2 }() {
		t.Fatal("request 12345 depends on draw order")
	}
	if same > n/4 {
		t.Errorf("seeds 7 and 8 agree on %d of %d keys", same, n)
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	// Zipf(0.99) over the serve key space (240 keys) gives the head key
	// about 16% of requests.
	if share := float64(top) / n; share < 0.12 || share > 0.25 {
		t.Errorf("most popular key has %.3f of requests, want a zipfian head near 0.16", share)
	}
	if share := float64(sweeps) / n; math.Abs(share-serveSweepShare) > 0.01 {
		t.Errorf("sweep share %.3f, want %.2f", share, serveSweepShare)
	}
}

func node(name string, start, dur int, children ...*spanNode) *spanNode {
	return &spanNode{name: name, start: time.Duration(start), dur: time.Duration(dur), children: children}
}

func TestSelfTimeAndClosure(t *testing.T) {
	// op [0,100): a [10,30) and b [20,50) overlap; c [90,120) runs past
	// the parent and is clipped; b has a child [25,35).
	tree := node("op", 0, 100,
		node("a", 10, 20),
		node("b", 20, 30, node("b.inner", 25, 10)),
		node("c", 90, 30))
	if got := selfTime(tree); got != 100-40-10 {
		t.Errorf("root self = %d, want 50 (children cover [10,50) and [90,100))", got)
	}
	if got := selfTime(tree.children[1]); got != 20 {
		t.Errorf("b self = %d, want 20", got)
	}
	l := newLedger()
	l.addTree(tree)
	// Layers: a 20 + b 20 + b.inner 10 + c 30 = 80 over a 100 wall, with
	// 50 unattributed: the overlap of a and b and c's overhang count twice.
	if l.unattributed != 50 || l.rootWall != 100 {
		t.Errorf("unattributed %d, wall %d", l.unattributed, l.rootWall)
	}
	if got := l.closure(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("closure = %v, want 0.8", got)
	}
	if closes(0.8) || !closes(0.96) || !closes(1.05) || closes(1.06) {
		t.Error("closure tolerance is not ±5%")
	}

	// A serial decomposition closes exactly.
	l = newLedger()
	l.addTree(node("op", 0, 100, node("x", 0, 60), node("y", 60, 40)))
	if got := l.closure(); got != 1 {
		t.Errorf("tiled operation: closure = %v, want 1", got)
	}
}

func TestHookTrackStacksBursts(t *testing.T) {
	tr := obs.New("op")
	ctx, parent := obs.StartSpan(obs.WithTrace(context.Background(), tr), "parent")
	time.Sleep(2 * time.Millisecond)
	h := newHookTrack(ctx, parent)
	// Three 1 ms events reported at one instant, as a config batch does,
	// then one longer than the time since the parent began.
	h.place("sim", time.Millisecond)
	h.place("sim", time.Millisecond)
	h.place("sim", time.Millisecond)
	h.place("long", time.Hour)
	parent.End()
	tr.Finish()
	root := treeOf(tr)
	kids := root.children[0].children
	if len(kids) != 4 {
		t.Fatalf("%d hook spans, want 4", len(kids))
	}
	for i := 1; i < 3; i++ {
		if kids[i].start+kids[i].dur > kids[i-1].start {
			t.Errorf("burst span %d overlaps span %d: %+v %+v", i, i-1, kids[i], kids[i-1])
		}
	}
	if kids[3].start < root.children[0].start {
		t.Errorf("span placed before its parent began: %v < %v", kids[3].start, root.children[0].start)
	}
}

func TestTimedFSReturnsInnerErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kmeans_1_x.rpp")
	injected := errors.New("injected")
	fault := storefs.NewFault(storefs.OS)
	var seen []storeOp
	fsys := newTimedFS(fault, func(op storeOp) { seen = append(seen, op) })

	// The fault FS wraps the injected error in a *storefs.FaultError; the
	// timing wrapper must hand back exactly that.
	fault.FailAlways(storefs.OpOpen, "", injected)
	_, direct := fault.Open(path)
	f, err := fsys.Open(path)
	var fe *storefs.FaultError
	if f != nil || !errors.As(err, &fe) || !errors.Is(err, injected) || err.Error() != direct.Error() {
		t.Fatalf("Open: got (%v, %v), want (nil, %v)", f, err, direct)
	}
	fault.Heal()
	if _, err := fsys.Open(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open of a missing file: %v, want ErrNotExist", err)
	}

	// A torn write and a failed rename surface unchanged through the
	// atomic-publish protocol the store uses.
	fault.Script(storefs.Rule{Op: storefs.OpWrite, Err: syscall.ENOSPC, ShortBytes: 3})
	err = storefs.WriteAtomic(fsys, path, ".rppmprof-*", func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn write: %v, want ENOSPC", err)
	}
	fault.Heal()
	fault.FailNth(storefs.OpRename, "", 1, injected)
	err = storefs.WriteAtomic(fsys, path, ".rppmprof-*", func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	})
	if !errors.As(err, &fe) || fe.Op != storefs.OpRename || !errors.Is(err, injected) {
		t.Fatalf("rename: %v, want the injected rename fault", err)
	}
	fault.Heal()

	// The happy path is timed and counted.
	if err := storefs.WriteAtomic(fsys, path, ".rppmprof-*", func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rf, err := fsys.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := storefs.ReadAllCapped(rf, 1<<20)
	rf.Close()
	if err != nil || string(data) != "payload" {
		t.Fatalf("read back %q, %v", data, err)
	}
	st := fsys.stats()
	if st.reads != 1 || st.bytesRead != 7 {
		t.Errorf("reads %d (%d bytes), want 1 (7)", st.reads, st.bytesRead)
	}
	// Three writes: the torn one and the unpublished one complete when
	// their temp files are removed, the last when it is renamed.
	if st.writes != 3 || st.bytesWritten != 3+7+7 {
		t.Errorf("writes %d (%d bytes), want 3 (17)", st.writes, st.bytesWritten)
	}
	last := seen[len(seen)-1]
	if last.write || last.path != path {
		t.Errorf("last observed transfer %+v, want the read of %s", last, path)
	}
	if w := seen[len(seen)-2]; !w.write || w.path != path || w.dur <= 0 {
		t.Errorf("published write observed as %+v", w)
	}
}

func TestRenderResult(t *testing.T) {
	rep := newReport()
	rep.check(true, "ok")
	for _, s := range endToEnd {
		rep.set(s.name, 1.5)
	}
	line, err := renderResult(rep, endToEnd, true)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result keys: %s", line)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil || len(metrics) != len(endToEnd) || metrics["setup_s"] != (metricValue{1.5, "s"}) {
		t.Errorf("metrics %v (%v)", metrics, err)
	}

	delete(rep.values, "setup_s")
	if _, err := renderResult(rep, endToEnd, true); err == nil || !strings.Contains(err.Error(), "setup_s") {
		t.Errorf("missing end-to-end metric: err %v", err)
	}
	if _, err := renderResult(rep, perLayer, false); err != nil {
		t.Errorf("unexercised per-layer metrics must read 0: %v", err)
	}
	rep.set("ledger.closure_ratio", math.NaN())
	if _, err := renderResult(rep, perLayer, false); err == nil {
		t.Error("NaN metric accepted")
	}
}
