package prng

import "testing"

// zipfNaive is the reference form of ZipfTable.Sample: draw u = Float64()
// and linearly scan the cumulative distribution for the first rank with
// u < cum[rank], falling back to the last rank. The table is required to
// reproduce this draw for draw.
func zipfNaive(s *Source, cum []float64) int {
	u := s.Float64()
	for r, c := range cum {
		if u < c {
			return r
		}
	}
	return len(cum) - 1
}

// TestZipfTableDifferential checks table == naive scan draw for draw over
// fixed seeds, across item counts (power-of-two and not) and exponents,
// and that both consume identical generator state.
func TestZipfTableDifferential(t *testing.T) {
	draws := 200000
	if testing.Short() {
		draws = 20000
	}
	for _, n := range []int{1, 2, 7, 64, 1000, 4096, 65536} {
		for _, theta := range []float64{0.5, 0.99, 1.0, 1.5} {
			tab := NewZipfTable(n, theta)
			cum := zipfCum(n, theta)
			a, b := New(uint64(n)*31+uint64(theta*100)), New(uint64(n)*31+uint64(theta*100))
			for i := 0; i < draws; i++ {
				want := zipfNaive(a, cum)
				got := tab.Sample(b)
				if got != want {
					t.Fatalf("n=%d theta=%v draw %d: Sample=%d want=%d", n, theta, i, got, want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("n=%d theta=%v: generator states diverged", n, theta)
			}
		}
	}
}

// TestZipfTableBoundaries checks the exact grid-count construction near
// every rank boundary: the largest grid index mapping to rank r and the
// smallest mapping to r+1 must both agree with the reference scan.
func TestZipfTableBoundaries(t *testing.T) {
	for _, n := range []int{2, 16, 1000} {
		theta := 0.99
		tab := NewZipfTable(n, theta)
		cum := zipfCum(n, theta)
		refAt := func(m uint64) int {
			u := float64(m) / (1 << 53)
			for r, c := range cum {
				if u < c {
					return r
				}
			}
			return n - 1
		}
		for r := 0; r < n-1; r++ {
			b := tab.counts[r]
			if b == 0 || b >= geomGridMax {
				continue
			}
			if got := refAt(b - 1); got > r {
				t.Fatalf("n=%d rank %d: grid %d below count %d maps to %d", n, r, b-1, b, got)
			}
			if got := refAt(b); got <= r {
				t.Fatalf("n=%d rank %d: grid %d at count %d still maps to %d", n, r, b, b, got)
			}
		}
	}
}

// TestZipfTableSkew sanity-checks the distribution shape: rank 0 must be
// the most frequent, and the hot prefix must concentrate mass roughly as
// the exponent dictates.
func TestZipfTableSkew(t *testing.T) {
	tab := NewZipfTable(1024, 0.99)
	s := New(7)
	n := 200000
	counts := make([]int, 1024)
	for i := 0; i < n; i++ {
		counts[tab.Sample(s)]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Fatalf("zipf head not decreasing: c0=%d c1=%d c10=%d", counts[0], counts[1], counts[10])
	}
	head := 0
	for _, c := range counts[:103] { // top ~10% of ranks
		head += c
	}
	if frac := float64(head) / float64(n); frac < 0.5 {
		t.Fatalf("top 10%% of ranks drew only %.2f of accesses, want > 0.5", frac)
	}
}

func TestZipfTablePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipfTable(0, 0.99) },
		func() { NewZipfTable(8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction did not panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkZipfSample(b *testing.B) {
	tab := NewZipfTable(1<<16, 0.99)
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.Sample(s)
	}
}
