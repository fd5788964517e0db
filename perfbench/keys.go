package main

import "rppm/internal/prng"

// keyGen draws the serve workload's request sequence. Request i is a pure
// function of (seed, i): its own SplitMix64 stream seeded from both picks
// a key rank from a zipfian popularity and maps it through a seed-derived
// permutation, so the sequence is reproducible however the concurrent
// clients interleave their picks of i.
type keyGen struct {
	seed  uint64
	zipf  *prng.ZipfTable
	perm  []int
	sweep float64 // share of requests that are sweeps
}

func newKeyGen(seed uint64, keys int, theta, sweepShare float64) *keyGen {
	perm := make([]int, keys)
	prng.New(seed ^ 0x6b657973).Perm(perm)
	return &keyGen{seed: seed, zipf: prng.NewZipfTable(keys, theta), perm: perm, sweep: sweepShare}
}

// at returns request i's key index and whether it is a sweep.
func (g *keyGen) at(i uint64) (key int, sweep bool) {
	src := prng.Seeded(g.seed*0x9e3779b97f4a7c15 + i)
	sweep = src.Float64() < g.sweep
	return g.perm[g.zipf.Sample(&src)], sweep
}

// sampled reports whether request i's response body is kept for the
// byte-identity check: a seeded one in every n.
func (g *keyGen) sampled(i uint64, n uint64) bool {
	src := prng.Seeded(g.seed ^ (i * 0xbf58476d1ce4e5b9))
	return src.Uint64n(n) == 0
}
