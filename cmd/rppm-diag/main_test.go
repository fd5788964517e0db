package main

import (
	"bytes"
	"strings"
	"testing"
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
