package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// The explore traced run takes core.Predict apart without calling any
// layer itself: a CPU profile taken over the real predictions attributes
// their time to the functions on each sample's stack, and a heap profile
// taken over a counting pass counts the StatStack models they build.
// Both see what the program did, whatever its control flow.

// Functions the CPU profile attributes prediction time to.
const (
	fnPredict      = "rppm/internal/core.PredictOpts" // core.Predict's body
	fnPredictEpoch = "rppm/internal/interval.PredictEpochOpts"
	fnStatstackNew = "rppm/internal/statstack.New"
	fnILPAnalyze   = "rppm/internal/ilp.Analyze"
	fnMLPCompute   = "rppm/internal/mlp.Compute"
)

// predictShares is how core.Predict's CPU samples split. A sample counts
// towards every function on its stack, so the layer counts nest inside
// phase1, and phase1 plus phase2 is the whole.
type predictShares struct {
	samples   int // samples with core.Predict on the stack
	phase1    int // ... and interval.PredictEpochOpts
	statstack int // ... and statstack.New
	ilp       int // ... and ilp.Analyze
	mlp       int // ... and mlp.Compute
	layers    int // phase-1 samples inside any of the three layers
}

func (s predictShares) phase2() int { return s.samples - s.phase1 }

// share returns n as a fraction of all prediction samples.
func (s predictShares) share(n int) float64 {
	if s.samples == 0 {
		return 0
	}
	return float64(n) / float64(s.samples)
}

// phase1Closure is the share of phase 1 spent in the three layers it
// calls; the rest is the interval model's own arithmetic.
func (s predictShares) phase1Closure() float64 {
	if s.phase1 == 0 {
		return 0
	}
	return float64(s.layers) / float64(s.phase1)
}

// attribute folds stacks of function names (one per sample, any frame
// order) into predictShares.
func attribute(stacks [][]string) predictShares {
	var s predictShares
	for _, st := range stacks {
		on := map[string]bool{}
		for _, f := range st {
			on[f] = true
		}
		if !on[fnPredict] {
			continue
		}
		s.samples++
		if !on[fnPredictEpoch] {
			continue
		}
		s.phase1++
		if on[fnStatstackNew] {
			s.statstack++
		}
		if on[fnILPAnalyze] {
			s.ilp++
		}
		if on[fnMLPCompute] {
			s.mlp++
		}
		if on[fnStatstackNew] || on[fnILPAnalyze] || on[fnMLPCompute] {
			s.layers++
		}
	}
	return s
}

// cpuProfile records a CPU profile of the whole process until stop is
// called, which returns each sample's stack as function names (inlined
// frames included), one entry per sampled tick.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	return p, pprof.StartCPUProfile(&p.buf)
}

func (p *cpuProfile) stop() ([][]string, error) {
	pprof.StopCPUProfile()
	return parseProfileStacks(&p.buf)
}

// parseProfileStacks decodes a gzipped profile.proto, as runtime/pprof
// writes it, into one stack of function names per sampled event: a sample
// whose first value is n contributes n copies of its stack.
func parseProfileStacks(r io.Reader) ([][]string, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs, values []uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return pbUints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(v, b, func(x uint64) { s.values = append(s.values, x) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out [][]string
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errProto
		}
		var st []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					st = append(st, strs[i])
				}
			}
		}
		for c := uint64(0); c < s.values[0]; c++ {
			out = append(out, st)
		}
	}
	return out, nil
}

var errProto = errors.New("malformed profile protobuf")

// pbFields calls fn for each field of one protobuf message: varint fields
// with v set, length-delimited ones with b set. Fixed-width fields, which
// profile.proto does not use, are skipped.
func pbFields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := pbVarint(buf)
		if n == 0 {
			return errProto
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(buf)
			if n == 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := pbVarint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints delivers a repeated integer field's values, whether it was
// written as one varint (b nil) or packed (b set).
func pbUints(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

// pbVarint decodes one varint; n is 0 when buf does not hold one.
func pbVarint(buf []byte) (v uint64, n int) {
	for i, c := range buf {
		if i == 10 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// modelAllocSite marks the allocations that build a StatStack model: a
// `&Model{` expression in package statstack.
const modelAllocSite = "&Model{"

// heapCounter counts the StatStack models built between start and stop
// by recording every heap allocation with its stack (MemProfileRate 1)
// and counting those made by a `&Model{` expression in package
// statstack. It reads each candidate site's source line from the file
// the binary was built from.
type heapCounter struct {
	rate   int
	before int64
	lines  map[string][]string // source file -> lines
}

func startHeapCounter() (*heapCounter, error) {
	h := &heapCounter{rate: runtime.MemProfileRate, lines: map[string][]string{}}
	runtime.GC()
	n, err := h.count()
	if err != nil {
		return nil, err
	}
	h.before = n
	runtime.MemProfileRate = 1
	return h, nil
}

// stop returns the models built since start.
func (h *heapCounter) stop() (int64, error) {
	runtime.MemProfileRate = h.rate
	// An allocation reaches the profile once a collection after it has
	// completed.
	runtime.GC()
	runtime.GC()
	n, err := h.count()
	return n - h.before, err
}

// count sums the allocations of every `&Model{` site in the profile.
func (h *heapCounter) count() (int64, error) {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	var total int64
	for i := range recs {
		site, err := h.isModelSite(recs[i].Stack())
		if err != nil {
			return 0, err
		}
		if site {
			total += recs[i].AllocObjects
		}
	}
	return total, nil
}

// isModelSite reports whether the allocating frame of stk, its first
// frame outside the runtime, is a `&Model{` expression in package
// statstack.
func (h *heapCounter) isModelSite(stk []uintptr) (bool, error) {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		if !strings.HasPrefix(f.Function, "runtime.") {
			if !strings.HasPrefix(f.Function, "rppm/internal/statstack.") {
				return false, nil
			}
			line, err := h.sourceLine(f.File, f.Line)
			return strings.Contains(line, modelAllocSite), err
		}
		if !more {
			return false, nil
		}
	}
}

func (h *heapCounter) sourceLine(file string, line int) (string, error) {
	ls, ok := h.lines[file]
	if !ok {
		data, err := os.ReadFile(file)
		if err != nil {
			return "", fmt.Errorf("statstack source for the model count: %w", err)
		}
		ls = strings.Split(string(data), "\n")
		h.lines[file] = ls
	}
	if line < 1 || line > len(ls) {
		return "", fmt.Errorf("%s has no line %d", file, line)
	}
	return ls[line-1], nil
}
