package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// goldenFigure4 is the SHA-256 over the Figure 4 rows at Scale 0.05, Seed 1,
// captured on the pre-optimization tree (commit 5e6cb65, after fixing the
// branch-model map-iteration nondeterminism). The batched-streaming /
// hashmap / packed-cache / lazy-sim overhaul is required to be bit-identical
// to that code: every float in every row must survive unchanged, serial and
// parallel.
//
// Re-pinned once since, for one row only: Parsec's streamcluster used to
// share its name, and so its session cache key, with Rodinia's, and its
// row reported Rodinia's program. Renamed streamcluster-parsec, the row
// now reports its own program; every other row is unchanged.
const goldenFigure4 = "58fbb128ecb433830e3b516b2880b973278889d72c57d5968b16feacba6f63c2"

func hashFigure4(r *Figure4Result) string {
	h := sha256.New()
	for _, row := range r.Rows {
		fmt.Fprintf(h, "%s|%d|%v|%v|%v|%v\n", row.Name, row.Kind, row.MAIN, row.CRIT, row.RPPM, row.SimCy)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenFigure4Determinism locks the whole profile→simulate→predict
// pipeline to the pre-optimization outputs: a serial run and a parallel run
// must both reproduce the recorded hash exactly. Any model change, float
// reordering, or scheduling-dependent result shows up here as a hash
// mismatch.
func TestGoldenFigure4Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("golden Figure 4 run is a full (reduced-scale) evaluation")
	}
	for _, workers := range []int{1, 8} {
		res, err := Figure4(Config{Scale: 0.05, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := hashFigure4(res); got != goldenFigure4 {
			t.Errorf("workers=%d: Figure 4 hash %s, want golden %s", workers, got, goldenFigure4)
		}
	}
}
