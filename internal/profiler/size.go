package profiler

import (
	"unsafe"

	"rppm/internal/statstack"
	"rppm/internal/trace"
)

// Resident-size accounting for retained profiles, used by the engine's
// memory-budgeted cache. Sizes are the dominant retained storage (count
// arrays, window arrays, site tables) plus struct overhead; sub-slab
// rounding is ignored, so the figure is a tight lower bound on the true
// heap footprint.

// SizeBytes returns the resident size of one sampled micro-trace window.
func (w *Window) SizeBytes() int64 {
	n := int64(len(w.Classes)) * int64(unsafe.Sizeof(trace.Class(0)))
	n += 2 * 2 * int64(len(w.Dep1))
	n += 8 * int64(len(w.GlobalRD))
	n += int64(len(w.IsLoad))
	return n
}

// SizeBytes returns the resident size of one epoch profile.
func (e *Epoch) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*e))
	n += e.Branch.SizeBytes()
	n += e.PrivateRD.SizeBytes() + e.GlobalRD.SizeBytes() + e.InstrRD.SizeBytes()
	n += e.modelsSizeBytes()
	if len(e.Windows) > 0 {
		// The ILP walk memo, charged at its bound for the same reason:
		// only epochs with windows are walked, so only they store one.
		n += int64(unsafe.Sizeof(ilpWalkTable{}))
	}
	n += int64(len(e.Windows)) * int64(unsafe.Sizeof(Window{}))
	for i := range e.Windows {
		n += e.Windows[i].SizeBytes()
	}
	return n
}

// modelsSizeBytes returns the resident size of the epoch's StatStack
// model memo. Like the histograms' suffix caches it is charged at its
// eventual size whether or not it has been built yet: prediction builds it
// after the profile is cached, and accounting must not depend on
// measurement timing.
func (e *Epoch) modelsSizeBytes() int64 {
	if e.Loads == 0 && e.ILineAccesses == 0 {
		return 0
	}
	n := int64(unsafe.Sizeof(Models{}))
	if e.Loads > 0 {
		n += statstack.ModelSizeBytes(e.PrivateRD) + statstack.ModelSizeBytes(e.GlobalRD)
	}
	if e.ILineAccesses > 0 {
		n += statstack.ModelSizeBytes(e.InstrRD)
	}
	return n
}

// SizeBytes returns the resident size of one thread's profile.
func (t *ThreadProfile) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*t))
	n += int64(len(t.Events)) * int64(unsafe.Sizeof(trace.Event{}))
	n += int64(len(t.Epochs)) * int64(unsafe.Sizeof((*Epoch)(nil)))
	for _, e := range t.Epochs {
		n += e.SizeBytes()
	}
	return n
}

// SizeBytes returns the resident size of the whole workload profile.
func (p *Profile) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*p)) + int64(len(p.Name))
	for _, t := range p.Threads {
		n += t.SizeBytes()
	}
	return n
}
