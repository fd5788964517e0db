package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/core"
	"rppm/internal/profiler"
	"rppm/internal/workload"
)

// TestRunRejectsBadArgs: a flag or an unknown benchmark name prints usage
// and exits 2 before any benchmark runs, instead of panicking.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-h"}, "usage: rppm-diag"},
		{[]string{"hotspot", "nosuch"}, `unknown benchmark "nosuch"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) || !strings.Contains(stderr.String(), "usage:") {
			t.Errorf("run(%q) stderr = %q, want usage and %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) ran a benchmark: %q", tc.args, stdout.String())
		}
	}
}

// TestRunResolvesRegistryEntries: registry family entries resolve like
// fixed-suite benchmarks.
func TestRunResolvesRegistryEntries(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"pipeline"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(pipeline) = %d, stderr %q", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "=== pipeline: sim ") {
		t.Fatalf("run(pipeline) stdout = %q", stdout.String())
	}
}

// TestDiagRebuildsPredRow: the diag line's rolled-up Deff and MLP rebuild
// the pred row's Base and DRAM components, because they are rolled up
// from the epochs the prediction evaluates.
func TestDiagRebuildsPredRow(t *testing.T) {
	bm, err := workload.ResolveBenchmark("nn")
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.Base()
	prof, err := profiler.Run(bm.Build(1, diagScale), profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.Predict(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := pred.Threads[0].Stack
	dg := rollUp(prof.Threads[0], &cfg)
	if ps.Base == 0 || ps.MemDRAM == 0 {
		t.Fatalf("nn t0 predicts base %v, dram %v: nothing to rebuild", ps.Base, ps.MemDRAM)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"Base", float64(dg.Instr) / dg.Deff, ps.Base},
		{"MemDRAM", dg.LLCMisses * float64(cfg.MemLatency) / dg.MLP, ps.MemDRAM},
	} {
		if rel := math.Abs(c.got-c.want) / c.want; rel > 1e-9 {
			t.Errorf("%s rebuilt as %v, pred row %v (rel err %.3g)", c.name, c.got, c.want, rel)
		}
	}
}
