package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"rppm/internal/engine"
	"rppm/internal/obs"
	"rppm/internal/stats"
	"rppm/internal/statstack"
)

// pb is a minimal protobuf writer for hand-built profiles.
type pb []byte

func (b pb) varint(v uint64) pb {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func (b pb) uint(num int, v uint64) pb { return b.varint(uint64(num) << 3).varint(v) }

func (b pb) bytes(num int, p []byte) pb {
	return append(b.varint(uint64(num)<<3|2).varint(uint64(len(p))), p...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var p pb
	for _, v := range vs {
		p = p.varint(v)
	}
	return b.bytes(num, p)
}

func TestParseProfileStacks(t *testing.T) {
	var prof pb
	// String table: index 0 is "".
	for _, s := range []string{"", fnPredict, fnPredictEpoch, fnStatstackNew, "main.main"} {
		prof = prof.bytes(6, []byte(s))
	}
	for id := uint64(1); id <= 4; id++ {
		prof = prof.bytes(5, pb{}.uint(1, id).uint(2, id))
	}
	// Location 1 holds statstack.New inlined into PredictEpochOpts;
	// location 2 is PredictOpts, location 3 main.main.
	prof = prof.bytes(4, pb{}.uint(1, 1).bytes(4, pb{}.uint(1, 3)).bytes(4, pb{}.uint(1, 2)))
	prof = prof.bytes(4, pb{}.uint(1, 2).bytes(4, pb{}.uint(1, 1)))
	prof = prof.bytes(4, pb{}.uint(1, 3).bytes(4, pb{}.uint(1, 4)))
	// A packed sample seen twice, and an unpacked one seen once; a
	// fixed64 field (wire type 1) that the parser must skip.
	prof = prof.bytes(2, pb{}.packed(1, 1, 2, 3).packed(2, 2, 20000000))
	prof = prof.bytes(2, pb{}.uint(1, 3).uint(2, 1).uint(2, 10000000))
	prof = append(prof.varint(9<<3|1), 1, 2, 3, 4, 5, 6, 7, 8)

	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(prof)
	zw.Close()
	got, err := parseProfileStacks(&z)
	if err != nil {
		t.Fatal(err)
	}
	full := []string{fnStatstackNew, fnPredictEpoch, fnPredict, "main.main"}
	want := [][]string{full, full, {"main.main"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stacks %q, want %q", got, want)
	}
	sh := attribute(got)
	if sh.samples != 2 || sh.phase1 != 2 || sh.statstack != 2 || sh.ilp != 0 || sh.phase2() != 0 || sh.phase1Closure() != 1 {
		t.Errorf("shares %+v", sh)
	}

	var bad bytes.Buffer
	zw = gzip.NewWriter(&bad)
	zw.Write(pb{}.varint(2<<3 | 2).varint(50)) // length past the end
	zw.Close()
	if _, err := parseProfileStacks(&bad); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestParseRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	pprof.StopCPUProfile()
	if _, err := parseProfileStacks(&buf); err != nil {
		t.Fatalf("runtime/pprof output: %v (%d)", err, x)
	}
}

func TestAttributeSplitsPhases(t *testing.T) {
	stacks := [][]string{
		{fnStatstackNew, fnPredictEpoch, fnPredict},
		{fnILPAnalyze, fnPredictEpoch, fnPredict},
		{fnMLPCompute, fnPredictEpoch, fnPredict},
		{"rppm/internal/branchmodel.(*Profile).Mispredicts", fnPredictEpoch, fnPredict},
		{"rppm/internal/core.(*symThread).run", fnPredict},
		{fnStatstackNew, "rppm/internal/interval.Diagnose"}, // not a prediction
	}
	sh := attribute(stacks)
	if sh.samples != 5 || sh.phase1 != 4 || sh.phase2() != 1 || sh.layers != 3 {
		t.Errorf("shares %+v", sh)
	}
	if got := sh.phase1Closure(); got != 0.75 {
		t.Errorf("phase-1 closure %v, want 0.75", got)
	}
	if got := sh.share(sh.statstack); got != 0.2 {
		t.Errorf("statstack share %v, want 0.2", got)
	}
}

func TestHeapCounterCountsModelBuilds(t *testing.T) {
	h := stats.NewHistogram()
	for i := int64(1); i < 500; i++ {
		h.Add(i % 97)
	}
	empty := stats.NewHistogram()
	c, err := startHeapCounter()
	if err != nil {
		t.Fatal(err)
	}
	const n = 37
	for i := 0; i < n; i++ {
		statstack.New(h)
		statstack.New(empty)
	}
	got, err := c.stop()
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*n {
		t.Errorf("counted %d model builds, want %d", got, 2*n)
	}
}

func TestEngineSimModes(t *testing.T) {
	tr := obs.New("engine.sweep")
	ctx := obs.WithTrace(context.Background(), tr)
	_, batch := obs.StartSpan(ctx, "simulate-batch")
	batch.Annotate("width", "3")
	_, dec := obs.StartSpan(ctx, "decode") // runs inside the batch's pass
	time.Sleep(time.Millisecond)
	dec.End()
	batch.End()
	_, one := obs.StartSpan(ctx, "simulate")
	one.Annotate("config", "c4")
	one.Annotate("cache", "miss")
	one.End()
	_, hit := obs.StartSpan(ctx, "simulate")
	hit.Annotate("config", "c0")
	hit.Annotate("cache", "hit")
	hit.End()
	tr.Finish()

	m := engineSimModes(tr)
	if m.batched != 3 || !reflect.DeepEqual(m.serial, map[string]bool{"c4": true}) || m.decode <= 0 || m.decodeInBatch != m.decode {
		t.Fatalf("modes %+v", m)
	}

	ev := func(cfg string, d time.Duration) engine.Event {
		return engine.Event{Kind: engine.EventSimulate, Config: cfg, Duration: d}
	}
	evs := []engine.Event{ev("c1", 10*m.decode), ev("c2", 10*m.decode), ev("c3", 10*m.decode), ev("c4", 5*m.decode),
		{Kind: engine.EventPredict, Config: "c1", Duration: time.Hour}}
	acc := &validateAcc{}
	rep := newReport()
	acc.addSimModes(m, evs, 1000, "w", rep)
	if rep.failed != 0 || acc.batchedSims != 3 || acc.serialSims != 1 {
		t.Fatalf("split %d/%d, %d failed: %v", acc.batchedSims, acc.serialSims, rep.failed, rep.notes)
	}
	if acc.batched != 29*m.decode || acc.serial != 5*m.decode || acc.batchedInstrs != 3000 || acc.decodeInstrs != 1000 {
		t.Errorf("batched %v serial %v (decode %v), instrs %d", acc.batched, acc.serial, m.decode, acc.batchedInstrs)
	}

	// Events the spans do not account for fail the check.
	acc.addSimModes(m, evs[:2], 1000, "w", rep)
	if rep.failed != 1 {
		t.Errorf("mismatched events and spans: %d failed", rep.failed)
	}
}
