package profilefmt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rppm/internal/arch"
	"rppm/internal/core"
	"rppm/internal/profiler"
	"rppm/internal/stats"
	"rppm/internal/trace"
	"rppm/internal/workload"
)

func profileBench(t testing.TB, name string, seed uint64, scale float64, opts profiler.Options) *profiler.Profile {
	t.Helper()
	bm, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.Run(bm.Build(seed, scale), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func encodeDecode(t testing.TB, p *profiler.Profile, opts profiler.Options) (*profiler.Profile, profiler.Options, []byte) {
	t.Helper()
	data, err := Encode(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, gotOpts, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return got, gotOpts, data
}

// TestRoundTripBitIdenticalPrediction is the differential guard the format
// exists for: a decoded profile must drive predictions bit-identical to the
// in-memory original, across multiple target configurations.
func TestRoundTripBitIdenticalPrediction(t *testing.T) {
	opts := profiler.Options{WindowSize: 256, WindowInterval: 2048}
	orig := profileBench(t, "kmeans", 3, 0.05, opts)
	dec, decOpts, _ := encodeDecode(t, orig, opts)

	if decOpts != opts {
		t.Fatalf("options round-trip: got %+v want %+v", decOpts, opts)
	}
	cfgs := append(arch.SweepSpace(4), arch.Base())
	for _, cfg := range cfgs {
		want, err := core.Predict(orig, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Predict(dec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %s: prediction from decoded profile diverged:\n got %+v\nwant %+v", cfg.Name, got, want)
		}
	}
	for _, pred := range []func(*profiler.Profile, arch.Config) (float64, error){core.PredictMain, core.PredictCrit} {
		want, err := pred(orig, arch.Base())
		if err != nil {
			t.Fatal(err)
		}
		got, err := pred(dec, arch.Base())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("baseline prediction diverged: %v vs %v", got, want)
		}
	}
}

// TestRoundTripStructure checks the decoded structure in detail: counters,
// histogram queries at many probe points (bitwise), events and windows.
func TestRoundTripStructure(t *testing.T) {
	opts := profiler.Options{}
	orig := profileBench(t, "hotspot", 2, 0.05, opts)
	dec, _, data := encodeDecode(t, orig, opts)

	if dec.Name != orig.Name || dec.NumThreads != orig.NumThreads {
		t.Fatalf("identity mismatch: %q/%d vs %q/%d", dec.Name, dec.NumThreads, orig.Name, orig.NumThreads)
	}
	if dec.TotalInstr() != orig.TotalInstr() {
		t.Fatalf("TotalInstr %d vs %d", dec.TotalInstr(), orig.TotalInstr())
	}
	for ti := range orig.Threads {
		ot, dt := orig.Threads[ti], dec.Threads[ti]
		if !reflect.DeepEqual(ot.Events, dt.Events) {
			t.Fatalf("thread %d events differ", ti)
		}
		if len(ot.Epochs) != len(dt.Epochs) {
			t.Fatalf("thread %d: %d vs %d epochs", ti, len(dt.Epochs), len(ot.Epochs))
		}
		for ei := range ot.Epochs {
			oe, de := ot.Epochs[ei], dt.Epochs[ei]
			if oe.Instr != de.Instr || oe.Mix != de.Mix || oe.Loads != de.Loads ||
				oe.Stores != de.Stores || oe.ILineAccesses != de.ILineAccesses ||
				oe.CoherenceInvalidations != de.CoherenceInvalidations {
				t.Fatalf("thread %d epoch %d counters differ", ti, ei)
			}
			if !reflect.DeepEqual(oe.Windows, de.Windows) {
				t.Fatalf("thread %d epoch %d windows differ", ti, ei)
			}
			if oe.Branch.NumSites() != de.Branch.NumSites() ||
				math.Float64bits(oe.Branch.LinearEntropy()) != math.Float64bits(de.Branch.LinearEntropy()) ||
				math.Float64bits(oe.Branch.MissRate(4096)) != math.Float64bits(de.Branch.MissRate(4096)) {
				t.Fatalf("thread %d epoch %d branch profile differs", ti, ei)
			}
			for hi, pair := range [][2]*stats.Histogram{
				{oe.PrivateRD, de.PrivateRD}, {oe.GlobalRD, de.GlobalRD}, {oe.InstrRD, de.InstrRD},
			} {
				o, d := pair[0], pair[1]
				if o.Count() != d.Count() || o.InfiniteCount() != d.InfiniteCount() ||
					o.Max() != d.Max() ||
					math.Float64bits(o.Mean()) != math.Float64bits(d.Mean()) {
					t.Fatalf("thread %d epoch %d histogram %d summary differs", ti, ei, hi)
				}
				for probe := int64(0); probe < 1<<22; probe = probe*3 + 1 {
					if math.Float64bits(o.CountAbove(probe)) != math.Float64bits(d.CountAbove(probe)) {
						t.Fatalf("thread %d epoch %d histogram %d CountAbove(%d) differs", ti, ei, hi, probe)
					}
				}
			}
		}
	}
	// Determinism of the encoding itself: encoding the decoded profile
	// reproduces the file byte for byte.
	data2, err := Encode(dec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding a decoded profile is not byte-stable")
	}
}

// withFlags returns a copy of the encoded profile with its flags word set
// to flags and the checksum recomputed, so only the flags check can reject
// it.
func withFlags(data []byte, flags uint32) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[12:16], flags)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// TestNonzeroFlagsRejected: the flags word is reserved and must be 0. A
// file with a flag bit set fails to decode even with a valid checksum.
func TestNonzeroFlagsRejected(t *testing.T) {
	opts := profiler.Options{}
	data, err := Encode(profileBench(t, "srad", 2, 0.05, opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, flags := range []uint32{1 << 0, 1 << 5} {
		bad := withFlags(data, flags)
		if _, _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "reserved flags") {
			t.Errorf("flags %#x: Decode error %v, want a reserved-flags error", flags, err)
		}
		if _, err := DecodeHeader(bad); err == nil || !strings.Contains(err.Error(), "reserved flags") {
			t.Errorf("flags %#x: DecodeHeader error %v, want a reserved-flags error", flags, err)
		}
	}
}

func TestHeaderDecode(t *testing.T) {
	opts := profiler.Options{WindowSize: 128, WindowInterval: 1024, NoCoherence: true}
	p := profileBench(t, "swaptions", 2, 0.03, opts)
	data, err := Encode(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != FileVersion || h.Name != p.Name ||
		h.Opts != opts || h.NumThreads != p.NumThreads {
		t.Fatalf("header mismatch: %+v", h)
	}
}

func TestWriteReadFile(t *testing.T) {
	opts := profiler.Options{}
	p := profileBench(t, "swaptions", 1, 0.03, opts)
	path := filepath.Join(t.TempDir(), "p.rpp")
	if err := WriteFile(path, p, opts); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalInstr() != p.TotalInstr() {
		t.Fatal("file round trip changed instruction count")
	}
	// Every truncated prefix must be rejected cleanly.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n += 1 + n/16 {
		if _, _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes not detected", n, len(data))
		}
	}
}

// TestCorruptionRejected flips bytes across the file: every corruption must
// be rejected by the checksum (or a structural bound), never decoded.
func TestCorruptionRejected(t *testing.T) {
	opts := profiler.Options{}
	p := profileBench(t, "swaptions", 1, 0.03, opts)
	data, err := Encode(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	step := len(data)/256 + 1
	for off := 0; off < len(data); off += step {
		cp := append([]byte(nil), data...)
		cp[off] ^= 0x5a
		if _, _, err := Decode(cp); err == nil {
			t.Fatalf("corruption at offset %d/%d not detected", off, len(data))
		}
	}
}

func TestEnvelopeErrors(t *testing.T) {
	opts := profiler.Options{}
	p := profileBench(t, "swaptions", 1, 0.03, opts)
	data, err := Encode(p, opts)
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), data...)
	copy(bad, "RPPMTRCE") // a v1 trace magic is not a profile
	if _, _, err := Decode(bad); err == nil {
		t.Fatal("wrong magic accepted")
	}

	bad = append([]byte(nil), data...)
	bad[8] = 3 // future version
	if _, _, err := Decode(bad); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := DecodeHeader(bad); err == nil {
		t.Fatal("DecodeHeader accepted future version")
	}
}

// windowProfile is a minimal one-thread profile whose only epoch carries
// one three-instruction window: an ALU op, a consumer of it, and a branch
// on the consumer.
func windowProfile() (*profiler.Profile, *profiler.Window) {
	ep := profiler.NewEpoch()
	ep.Instr = 3
	ep.Windows = []profiler.Window{{
		Classes:  []trace.Class{trace.IntALU, trace.IntALU, trace.Branch},
		Dep1:     []int16{-1, 0, 1},
		Dep2:     []int16{-1, -1, 0},
		GlobalRD: []int64{-1, -1, -1},
		IsLoad:   []bool{false, false, false},
	}}
	p := &profiler.Profile{Name: "window", NumThreads: 1, Threads: []*profiler.ThreadProfile{{
		Epochs: []*profiler.Epoch{ep},
		Events: []trace.Event{{Kind: trace.SyncThreadExit}},
	}}}
	return p, &ep.Windows[0]
}

// TestDecodeRejectsUnevaluableWindows: a checksummed file whose window
// names an unknown instruction class, or a producer at or after its
// consumer, is rejected at decode. Unchecked, it would decode and then
// panic the ILP model with an index out of range at prediction time.
func TestDecodeRejectsUnevaluableWindows(t *testing.T) {
	p, w := windowProfile()
	data, err := Encode(p, profiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(data); err != nil {
		t.Fatalf("well-formed window rejected: %v", err)
	}
	enc, err := appendWindow(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(data, enc) != 1 {
		t.Fatal("window encoding not found exactly once in the file")
	}
	at := bytes.Index(data, enc)
	// Window layout: length, 3 class bytes, 3 Dep1 varints, 3 Dep2 varints
	// (every value here fits one zigzag byte), ...
	classes, dep1, dep2 := at+1, at+4, at+7
	for _, c := range []struct {
		name string
		off  int
		b    byte
		want string
	}{
		{"unknown class", classes + 2, byte(trace.NumClasses), "unknown class"},
		{"self dependence", dep1 + 1, 2 /* zigzag 1 */, "names producer 1"},
		{"forward dependence", dep2 + 0, 4 /* zigzag 2 */, "names producer 2"},
		{"dependence below -1", dep2 + 1, 3 /* zigzag -2 */, "names producer -2"},
	} {
		bad := append([]byte(nil), data...)
		bad[c.off] = c.b
		body := bad[:len(bad)-4]
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(body))
		_, _, err := Decode(bad)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Decode error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestEncodeRejectsUnevaluableWindows: the encoder refuses the same
// windows the decoder rejects, so no file it writes can fail to load.
func TestEncodeRejectsUnevaluableWindows(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(w *profiler.Window)
		want   string
	}{
		{"unknown class", func(w *profiler.Window) { w.Classes[0] = trace.Class(trace.NumClasses) }, "unknown class"},
		{"self dependence", func(w *profiler.Window) { w.Dep1[1] = 1 }, "names producer 1"},
		{"forward dependence", func(w *profiler.Window) { w.Dep2[0] = 2 }, "names producer 2"},
		{"dependence below -1", func(w *profiler.Window) { w.Dep1[2] = -2 }, "names producer -2"},
	} {
		p, w := windowProfile()
		c.mutate(w)
		_, err := Encode(p, profiler.Options{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Encode error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// FuzzDecode: arbitrary bytes must never panic the decoder. Seeds include
// a valid encoding so the fuzzer mutates from real structure, and a
// checksummed one with a reserved flag set.
func FuzzDecode(f *testing.F) {
	opts := profiler.Options{}
	p := profileBench(f, "swaptions", 1, 0.02, opts)
	data, err := Encode(p, opts)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:16])
	f.Add([]byte(fileMagic))
	f.Add(withFlags(data, 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		dec, _, err := Decode(b)
		if err != nil {
			return
		}
		// A successful decode (only reachable with a correct checksum)
		// must yield a structurally sound, re-encodable profile.
		if _, err := Encode(dec, profiler.Options{}); err != nil {
			t.Fatalf("decoded profile does not re-encode: %v", err)
		}
		// ... and one the model can evaluate: a prediction may reject it
		// with an error but must never panic.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("core.Predict panicked on a decoded profile: %v", r)
				}
			}()
			_, _ = core.Predict(dec, arch.Base())
		}()
	})
}

// TestTornWriteCorpus is the torn-write regression corpus: a profile file
// cut off at every possible byte boundary — every prefix a torn write,
// partial page flush or mid-stream crash could leave behind — must be
// rejected by Decode and DecodeHeader with a descriptive error, and must
// never panic or be accepted. The envelope checksum makes every strict
// prefix detectably incomplete, so this holds at field boundaries and
// mid-field alike.
func TestTornWriteCorpus(t *testing.T) {
	opts := profiler.Options{WindowSize: 128, WindowInterval: 4096}
	p := profileBench(t, "kmeans", 1, 0.02, opts)
	data, err := Encode(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(data); err != nil {
		t.Fatalf("golden file does not decode: %v", err)
	}
	t.Logf("corpus file: %d bytes, %d truncations", len(data), len(data))

	decodeTorn := func(n int, prefix []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %d-byte truncation: %v", n, r)
			}
		}()
		_, _, err = Decode(prefix)
		return err
	}
	for n := 0; n < len(data); n++ {
		err := decodeTorn(n, data[:n])
		if err == nil {
			t.Fatalf("Decode accepted a %d-byte truncation of a %d-byte file", n, len(data))
		}
		if !strings.Contains(err.Error(), "profilefmt") {
			t.Fatalf("%d-byte truncation: error %q does not identify the decoder", n, err)
		}
		// The header summary must hold itself to the same standard: reject
		// or succeed, never panic (prefixes that still contain the whole
		// header legitimately parse).
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("DecodeHeader panicked on %d-byte truncation: %v", n, r)
				}
			}()
			_, _ = DecodeHeader(data[:n])
		}()
	}
}
