// The generalized golden-invariant harness: every entry of the default
// suite registry — the fixed benchmark suite plus the synthetic workload
// families — must reproduce its pinned invariant hash, and the four
// execution modes (serial generation, trace replay, config-batched
// stepping, parallel session sweep) must be bit-identical per entry. This
// is TestGoldenFigure4Determinism scaled from one experiment to the whole
// registry; it runs in -short mode too, so the race-enabled CI jobs cover
// every entry.
package rppm_test

import (
	"testing"

	"rppm/internal/suitecheck"
	"rppm/internal/workload"
)

func TestGoldenSuiteInvariants(t *testing.T) {
	reg, err := workload.DefaultSuites()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range reg.Entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			if testing.Short() && e.Family != "" && e.Name != "skewed-sharing" {
				// In -short mode keep one full-size family entry (the one
				// exercising skewed directory sharing and the config-batch
				// gate) and every fixed-suite entry; the remaining family
				// entries run only in full mode.
				t.Skip("large family entry; run without -short")
			}
			rep, err := suitecheck.CheckEntry(e)
			if err != nil {
				if rep != nil {
					t.Fatalf("%v (computed %s — regenerate with `rppm suite -rehash` "+
						"only for an intentional model change)", err, rep.Hash)
				}
				t.Fatal(err)
			}
		})
	}
}
