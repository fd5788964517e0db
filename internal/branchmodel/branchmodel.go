// Package branchmodel predicts branch misprediction rates from a
// microarchitecture-independent branch profile, following the
// linear-branch-entropy approach of De Pestel et al. (ISPASS 2015) cited by
// the RPPM paper.
//
// The profile records, per static branch site, the number of executions and
// the taken probability. The microarchitecture-independent characteristic is
// the per-site *linear entropy*
//
//	E_lin(p) = 2·p·(1−p),
//
// which is 0 for perfectly biased branches and 1 for 50/50 branches, and
// from which the bias min(p, 1−p) is recovered exactly via
// min(p,1−p) = (1 − sqrt(1 − 2·E_lin))/2.
//
// For outcomes without exploitable history correlation (the case our
// generators produce), a trained 2-bit saturating counter reaches the
// steady-state miss rate of its birth-death Markov chain,
//
//	m₂(p) = (p + q·r²) / (1 + r²),  r = p/q,  q = 1−p,
//
// which is the per-site floor of the tournament predictor: neither the
// gshare component nor the chooser can beat it on history-free outcomes.
// The predictor-size dependence enters as an aliasing term: with S counters
// per table and B live branch sites, a lookup collides with another site
// with probability c = 1−(1−1/S)^(B−1); a destructive collision pushes the
// miss rate toward 1/2. The model is
//
//	m = Σ_site w_site · [ m₂(p_site) + (1/2 − m₂(p_site)) · α·c ],
//
// with α a fixed constant calibrated once against the simulator's
// tournament predictor (a property of the predictor family, not of any
// workload — analogous to the one-time calibration in [10]).
package branchmodel

import (
	"math"
	"sort"
	"sync/atomic"
	"unsafe"

	"rppm/internal/hashmap"
)

// SiteStats is the profile of one static branch site.
type SiteStats struct {
	Count  uint64  // dynamic executions
	TakenP float64 // fraction taken
}

// Profile is the branch profile of one epoch or one thread: per-site stats.
// Sites are stored in an open-addressing table: Record runs once per
// dynamic branch in the profiler's hot loop, where the built-in map's
// lookup-then-insert pattern was measurable.
type Profile struct {
	sites hashmap.Map[SiteStats]

	// sorted memoizes sortedSites: predictions evaluate LinearEntropy and
	// MissRate repeatedly against finished, read-only profiles, and
	// re-sorting per call dominated those accessors. Dropped on mutation;
	// atomic because finished profiles are read by concurrent prediction
	// workers (racing builders store identical contents).
	sorted atomic.Pointer[[]sortedSite]
}

// sortedSite is one site of the sorted snapshot, with its 2-bit counter
// miss-rate floor: the floor depends only on the site's taken probability,
// never on the predictor, so the snapshot computes it once for every
// MissRate call.
type sortedSite struct {
	SiteStats
	floor float64
}

// NewProfile returns an empty branch profile.
func NewProfile() *Profile {
	return &Profile{}
}

// SiteArena slab-allocates the site tables of many profiles. The profiler
// creates one branch profile per epoch, and their individually-allocated
// tables dominated its residual allocation count; PresizeIn carves them
// out of shared chunks instead. Single-goroutine, like profiling itself.
type SiteArena struct {
	arena hashmap.Arena[SiteStats]
}

// PresizeIn points p's site table into the arena, pre-sized for about
// hint sites. Call on a fresh profile before the first Record; the hint
// is typically the previous epoch's NumSites, since epochs of one thread
// execute the same static code.
func (p *Profile) PresizeIn(a *SiteArena, hint int) {
	p.sites.InitIn(&a.arena, hint)
}

// Site returns the stats recorded for a site id.
func (p *Profile) Site(id uint16) (SiteStats, bool) {
	return p.sites.Get(uint64(id))
}

// SetSite overwrites a site's stats (used by tests and synthetic profiles).
func (p *Profile) SetSite(id uint16, s SiteStats) {
	p.sites.Put(uint64(id), s)
	p.invalidate()
}

// SiteRecord pairs a site id with its stats, for the profile persistence
// codec (internal/profilefmt).
type SiteRecord struct {
	ID    uint16
	Stats SiteStats
}

// ExportSites returns every recorded site in ascending id order. TakenP
// values are carried verbatim, so a profile rebuilt from the records via
// ProfileFromSites answers LinearEntropy/MissRate/Branches bit-identically:
// those accessors accumulate in sortedSites (ascending-id) order, which is
// independent of the site table's slot layout.
func (p *Profile) ExportSites() []SiteRecord {
	recs := make([]SiteRecord, 0, p.sites.Len())
	p.sites.Range(func(id uint64, s *SiteStats) {
		recs = append(recs, SiteRecord{ID: uint16(id), Stats: *s})
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs
}

// ProfileFromSites builds a profile holding exactly the given site records.
func ProfileFromSites(recs []SiteRecord) *Profile {
	p := NewProfile()
	for _, r := range recs {
		p.sites.Put(uint64(r.ID), r.Stats)
	}
	return p
}

// invalidate drops the memoized sorted snapshot after a mutation. The load
// check keeps the recording hot path to a read: the snapshot only exists
// once predictions have started.
func (p *Profile) invalidate() {
	if p.sorted.Load() != nil {
		p.sorted.Store(nil)
	}
}

// NumSites returns the number of distinct static branch sites recorded.
func (p *Profile) NumSites() int { return p.sites.Len() }

// SizeBytes returns the resident size of the profile, for memory-budget
// accounting. The memoized sorted snapshot is charged at its eventual
// size whether or not it has been built yet: finished profiles build it
// lazily on the first prediction, and accounting must not depend on when
// the measurement ran relative to that.
func (p *Profile) SizeBytes() int64 {
	return p.sites.SizeBytes() + int64(p.sites.Len())*int64(unsafe.Sizeof(sortedSite{}))
}

// Record adds one dynamic branch execution to the profile.
func (p *Profile) Record(site uint16, taken bool) {
	s := p.sites.Ref(uint64(site))
	p.invalidate()
	// Incremental mean of the taken indicator.
	t := 0.0
	if taken {
		t = 1.0
	}
	s.TakenP += (t - s.TakenP) / float64(s.Count+1)
	s.Count++
}

// Merge folds other into p (weighted by execution counts).
func (p *Profile) Merge(other *Profile) {
	if other == nil || other == p {
		return
	}
	p.invalidate()
	other.sites.Range(func(id uint64, os *SiteStats) {
		s, present := p.sites.RefPresent(id)
		if !present {
			*s = *os
			return
		}
		total := s.Count + os.Count
		s.TakenP = (s.TakenP*float64(s.Count) + os.TakenP*float64(os.Count)) / float64(total)
		s.Count = total
	})
}

// Branches returns the total dynamic branch count in the profile. It sums
// the memoized sorted snapshot that MissRate already builds: predictions
// call it once per epoch, and the integer sum does not depend on order.
func (p *Profile) Branches() uint64 {
	var n uint64
	for _, s := range p.sortedSites() {
		n += s.Count
	}
	return n
}

// sortedSites returns the per-site stats, with their counter miss-rate
// floors, in ascending site-id order. Floating-point accumulations over
// the profile must follow this order: iterating the site table directly
// would make the sums depend on the table's slot order, which varies with
// growth history and would break run-to-run reproducibility of
// predictions.
func (p *Profile) sortedSites() []sortedSite {
	if cached := p.sorted.Load(); cached != nil {
		return *cached
	}
	type entry struct {
		id uint64
		s  SiteStats
	}
	entries := make([]entry, 0, p.sites.Len())
	p.sites.Range(func(id uint64, s *SiteStats) {
		entries = append(entries, entry{id: id, s: *s})
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	out := make([]sortedSite, len(entries))
	for i := range entries {
		out[i] = sortedSite{entries[i].s, counterMissRate(entries[i].s.TakenP)}
	}
	p.sorted.Store(&out)
	return out
}

// LinearEntropy returns the execution-weighted mean linear entropy of the
// profile, in [0, 1].
func (p *Profile) LinearEntropy() float64 {
	var total, acc float64
	for _, s := range p.sortedSites() {
		w := float64(s.Count)
		acc += w * 2 * s.TakenP * (1 - s.TakenP)
		total += w
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

// Aliasing calibration constants for the tournament predictor family (see
// package comment). Calibrated once against internal/bpred; they are
// workload-independent.
const (
	aliasAlpha = 0.35
	// countersPerByte: 2-bit counters, three tables split the budget, so a
	// B-byte predictor has ~B·4/3 entries per table (internal/bpred rounds
	// down to a power of two; the model uses the smooth value).
	countersPerByte = 4.0 / 3.0
)

// counterMissRate returns the steady-state miss rate of a 2-bit saturating
// counter trained on i.i.d. Bernoulli(p) outcomes.
func counterMissRate(p float64) float64 {
	q := 1 - p
	switch {
	case q <= 0, p <= 0:
		return 0
	}
	r := p / q
	r2 := r * r
	return (p + q*r2) / (1 + r2)
}

// MissRate predicts the misprediction rate for a predictor with the given
// storage budget in bytes.
func (p *Profile) MissRate(predictorBytes int) float64 {
	entries := float64(predictorBytes) * countersPerByte
	if entries < 4 {
		entries = 4
	}
	liveSites := float64(p.sites.Len())
	collision := 0.0
	if liveSites > 1 {
		collision = 1 - math.Pow(1-1/entries, liveSites-1)
	}
	pressure := aliasAlpha * collision

	var total, acc float64
	for _, s := range p.sortedSites() {
		w := float64(s.Count)
		m := s.floor + (0.5-s.floor)*pressure
		acc += w * m
		total += w
	}
	if total == 0 {
		return 0
	}
	return acc / total
}
