// Package profilefmt implements the persistence format for workload
// profiles — artifact format v2, the companion of the v1 trace format in
// internal/trace. A service that spills both artifacts can serve a cold
// prediction for a previously-seen key without re-running generation *or*
// profiling: the profile pass (~81 ns/instr) dominates the cold path, so
// reloading it is the difference between ~2.8 ms and well under a
// millisecond.
//
// The layout is specified normatively in docs/TRACE_FORMAT.md; any change
// here must bump FileVersion and follow that document's evolution
// checklist.
//
// # Format (version 2)
//
// All fixed-width integers are little-endian; variable-width integers use
// Go's unsigned (uvarint) or zigzag (varint) LEB128 encoding.
//
//	[8]byte  magic "RPPMPROF"
//	uint32   format version (currently 2)
//	uint32   flags (reserved, must be 0)
//	body     varint-coded profile payload (see below)
//	uint32   IEEE CRC-32 over everything above
//
// Body layout:
//
//	uvarint  name length, followed by the name bytes
//	uvarint  profiler window size · uvarint window interval · byte no-coherence
//	uvarint  thread count
//	per thread:
//	  uvarint epoch count
//	  per epoch:
//	    uvarints: Instr, Mix[NumClasses], Loads, Stores, ILineAccesses,
//	              CoherenceInvalidations
//	    branch sites: uvarint count, then per site in strictly ascending id
//	      order: uvarint id, uvarint exec count, 8-byte TakenP float bits
//	    three histograms (PrivateRD, GlobalRD, InstrRD), each:
//	      byte flags (bit 0: exact-count linear array present)
//	      uvarints: sample count, infinite count; 8-byte finite-sum float
//	      bits; uvarint max finite sample
//	      if linear present: sparse pairs — uvarint nonzero count, then per
//	        entry (ascending index): uvarint index gap, uvarint bucket count
//	      log buckets: uvarint array length, then sparse pairs as above
//	    sampled windows: uvarint window count, per window:
//	      uvarint length; Classes as raw bytes; Dep1 then Dep2 as zigzag
//	      varints; GlobalRD as uvarints under the mapping -1→0, Infinite→1,
//	      v→v+2; IsLoad as a packed LSB-first bitset. Every class is
//	      below trace.NumClasses and every dependence is -1 or an earlier
//	      index of the window, checked on encode and decode
//	  events: uvarint count, then per event: byte kind, uvarint object id,
//	    zigzag varint argument
//
// Floating-point state (histogram sums, branch taken-probabilities) is
// carried as raw IEEE-754 bits, and branch sites are written in the same
// ascending-id order the models accumulate in, so a decoded profile drives
// bit-identical predictions (guarded by a differential test against the
// golden Figure-4 pipeline).
//
// Decoding validates the checksum over the whole payload *before* any
// structural parsing: a truncated or corrupted file is rejected up front
// and can never drive large speculative allocations. The structural
// decoder still bounds every field (defense in depth for the fuzzer and
// for checksum collisions).
package profilefmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"rppm/internal/branchmodel"
	"rppm/internal/profiler"
	"rppm/internal/stats"
	"rppm/internal/storefs"
	"rppm/internal/trace"
)

const (
	// FileVersion is the profile file format version this package writes.
	// Readers reject other versions rather than guessing. Version 2: the
	// artifact store's first version (1) is the trace format; profiles
	// joined the store in format version 2.
	FileVersion = 2

	fileMagic = "RPPMPROF"

	// Bounds on header-adjacent fields, mirroring the trace reader's
	// hardening: a corrupt or adversarial field cannot drive allocations.
	maxFileName    = 1 << 12
	maxFileThreads = 1 << 20
	maxWindowLen   = 1 << 24
	maxFileBytes   = 1 << 31
)

// Header summarizes a profile file without decoding its payload.
type Header struct {
	Version    uint32
	Name       string
	Opts       profiler.Options
	NumThreads int
}

// Encode serializes the profile and the profiler options it was collected
// with into the versioned file format, checksum included.
func Encode(p *profiler.Profile, opts profiler.Options) ([]byte, error) {
	if len(p.Name) > maxFileName {
		return nil, fmt.Errorf("profilefmt: name %q too long to serialize", p.Name)
	}
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, fileMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, FileVersion)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // flags

	buf = binary.AppendUvarint(buf, uint64(len(p.Name)))
	buf = append(buf, p.Name...)
	buf = binary.AppendUvarint(buf, uint64(opts.WindowSize))
	buf = binary.AppendUvarint(buf, uint64(opts.WindowInterval))
	buf = append(buf, boolByte(opts.NoCoherence))
	if len(p.Threads) > maxFileThreads {
		return nil, fmt.Errorf("profilefmt: %d threads exceeds limit", len(p.Threads))
	}
	if p.NumThreads != len(p.Threads) {
		return nil, fmt.Errorf("profilefmt: NumThreads %d != %d threads", p.NumThreads, len(p.Threads))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Threads)))
	var err error
	for _, t := range p.Threads {
		buf = binary.AppendUvarint(buf, uint64(len(t.Epochs)))
		for _, e := range t.Epochs {
			if buf, err = appendEpoch(buf, e); err != nil {
				return nil, err
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(t.Events)))
		for _, ev := range t.Events {
			buf = append(buf, byte(ev.Kind))
			buf = binary.AppendUvarint(buf, uint64(ev.Obj))
			buf = binary.AppendVarint(buf, int64(ev.Arg))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

func appendEpoch(buf []byte, e *profiler.Epoch) ([]byte, error) {
	buf = binary.AppendUvarint(buf, e.Instr)
	for _, n := range e.Mix {
		buf = binary.AppendUvarint(buf, n)
	}
	buf = binary.AppendUvarint(buf, e.Loads)
	buf = binary.AppendUvarint(buf, e.Stores)
	buf = binary.AppendUvarint(buf, e.ILineAccesses)
	buf = binary.AppendUvarint(buf, e.CoherenceInvalidations)

	sites := e.Branch.ExportSites()
	buf = binary.AppendUvarint(buf, uint64(len(sites)))
	for _, s := range sites {
		buf = binary.AppendUvarint(buf, uint64(s.ID))
		buf = binary.AppendUvarint(buf, s.Stats.Count)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Stats.TakenP))
	}

	for _, h := range [3]*stats.Histogram{e.PrivateRD, e.GlobalRD, e.InstrRD} {
		buf = appendHistogram(buf, h)
	}

	buf = binary.AppendUvarint(buf, uint64(len(e.Windows)))
	for i := range e.Windows {
		var err error
		if buf, err = appendWindow(buf, &e.Windows[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func appendHistogram(buf []byte, h *stats.Histogram) []byte {
	st := h.State()
	var flags byte
	if st.Linear != nil {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, st.Count)
	buf = binary.AppendUvarint(buf, st.Infinite)
	buf = binary.LittleEndian.AppendUint64(buf, st.SumBits)
	buf = binary.AppendUvarint(buf, uint64(st.Max))
	if st.Linear != nil {
		buf = appendSparse(buf, st.Linear)
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Log)))
	buf = appendSparse(buf, st.Log)
	return buf
}

// appendSparse writes a count array as (nonzero count, then per nonzero
// entry: gap from the previous nonzero index, value). The first gap is the
// index itself; subsequent gaps are index − previousIndex − 1.
func appendSparse(buf []byte, counts []uint64) []byte {
	nnz := 0
	for _, c := range counts {
		if c != 0 {
			nnz++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(nnz))
	prev := -1
	for i, c := range counts {
		if c == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(i-prev-1))
		buf = binary.AppendUvarint(buf, c)
		prev = i
	}
	return buf
}

func appendWindow(buf []byte, w *profiler.Window) ([]byte, error) {
	n := len(w.Classes)
	if len(w.Dep1) != n || len(w.Dep2) != n || len(w.GlobalRD) != n || len(w.IsLoad) != n {
		return nil, fmt.Errorf("profilefmt: ragged window (classes %d dep1 %d dep2 %d rd %d load %d)",
			n, len(w.Dep1), len(w.Dep2), len(w.GlobalRD), len(w.IsLoad))
	}
	if err := checkWindow(w); err != nil {
		return nil, err
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, c := range w.Classes {
		buf = append(buf, byte(c))
	}
	for _, d := range w.Dep1 {
		buf = binary.AppendVarint(buf, int64(d))
	}
	for _, d := range w.Dep2 {
		buf = binary.AppendVarint(buf, int64(d))
	}
	for _, v := range w.GlobalRD {
		switch {
		case v == -1:
			buf = binary.AppendUvarint(buf, 0)
		case v == stats.Infinite:
			buf = binary.AppendUvarint(buf, 1)
		case v >= 0:
			buf = binary.AppendUvarint(buf, uint64(v)+2)
		default:
			return nil, fmt.Errorf("profilefmt: unencodable global reuse distance %d", v)
		}
	}
	var acc byte
	for i, l := range w.IsLoad {
		if l {
			acc |= 1 << (uint(i) % 8)
		}
		if i%8 == 7 {
			buf = append(buf, acc)
			acc = 0
		}
	}
	if n%8 != 0 {
		buf = append(buf, acc)
	}
	return buf, nil
}

// checkWindow rejects a window the ILP and MLP models cannot evaluate: an
// instruction class outside trace.NumClasses, or a dependence that is
// neither -1 (producer outside the window) nor an earlier instruction of
// the window. The profiler never emits either; a file that carries one
// would otherwise fail at prediction time with an index out of range.
func checkWindow(w *profiler.Window) error {
	for i, c := range w.Classes {
		if int(c) >= trace.NumClasses {
			return fmt.Errorf("profilefmt: window instruction %d has unknown class %d", i, c)
		}
	}
	for _, dep := range [2][]int16{w.Dep1, w.Dep2} {
		for i, p := range dep {
			if p < -1 || int(p) >= i {
				return fmt.Errorf("profilefmt: window instruction %d names producer %d, not an earlier instruction", i, p)
			}
		}
	}
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// checkEnvelope validates magic, version, the trailing checksum and the
// reserved (zero) flags word, and returns the body payload between header
// and checksum.
func checkEnvelope(data []byte) (body []byte, err error) {
	const headerLen = 8 + 4 + 4
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("profilefmt: file truncated (%d bytes)", len(data))
	}
	if string(data[:8]) != fileMagic {
		return nil, fmt.Errorf("profilefmt: bad magic %q (not a profile file)", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != FileVersion {
		return nil, fmt.Errorf("profilefmt: unsupported format version %d (have %d)", v, FileVersion)
	}
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != sum {
		return nil, fmt.Errorf("profilefmt: checksum mismatch (file %08x, computed %08x)", sum, got)
	}
	if flags := binary.LittleEndian.Uint32(data[12:16]); flags != 0 {
		return nil, fmt.Errorf("profilefmt: reserved flags word is %#x, want 0", flags)
	}
	return data[headerLen : len(data)-4], nil
}

// decoder consumes the checksummed body payload.
type decoder struct {
	buf []byte
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("profilefmt: reading %s: invalid uvarint", what)
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) varint(what string) (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, fmt.Errorf("profilefmt: reading %s: invalid varint", what)
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) bytes(n int, what string) ([]byte, error) {
	if n < 0 || n > len(d.buf) {
		return nil, fmt.Errorf("profilefmt: reading %s: %d bytes past end of payload", what, n)
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b, nil
}

func (d *decoder) byte(what string) (byte, error) {
	b, err := d.bytes(1, what)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *decoder) u64(what string) (uint64, error) {
	b, err := d.bytes(8, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// count reads an element count that must fit the remaining payload at a
// minimum of minBytes encoded bytes per element, so a corrupt count can
// never drive an allocation larger than the file itself.
func (d *decoder) count(minBytes int, what string) (int, error) {
	v, err := d.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.buf))/uint64(minBytes) {
		return 0, fmt.Errorf("profilefmt: %s count %d exceeds remaining payload", what, v)
	}
	return int(v), nil
}

// decodeHeaderFields parses the body fields through the thread count.
func decodeHeaderFields(d *decoder, h *Header) error {
	nameLen, err := d.uvarint("name length")
	if err != nil {
		return err
	}
	if nameLen > maxFileName {
		return fmt.Errorf("profilefmt: name length %d exceeds limit", nameLen)
	}
	name, err := d.bytes(int(nameLen), "name")
	if err != nil {
		return err
	}
	h.Name = string(name)
	ws, err := d.uvarint("window size")
	if err != nil {
		return err
	}
	wi, err := d.uvarint("window interval")
	if err != nil {
		return err
	}
	if ws > math.MaxInt32 || wi > math.MaxInt32 {
		return fmt.Errorf("profilefmt: profiler options out of range")
	}
	nc, err := d.byte("no-coherence flag")
	if err != nil {
		return err
	}
	h.Opts = profiler.Options{WindowSize: int(ws), WindowInterval: int(wi), NoCoherence: nc != 0}
	nThreads, err := d.uvarint("thread count")
	if err != nil {
		return err
	}
	if nThreads > maxFileThreads {
		return fmt.Errorf("profilefmt: thread count %d exceeds limit", nThreads)
	}
	h.NumThreads = int(nThreads)
	return nil
}

// DecodeHeader validates the envelope (magic, version, checksum) and
// returns the file's summary header without decoding epochs.
func DecodeHeader(data []byte) (Header, error) {
	var h Header
	body, err := checkEnvelope(data)
	if err != nil {
		return h, err
	}
	h.Version = FileVersion
	d := &decoder{buf: body}
	if err := decodeHeaderFields(d, &h); err != nil {
		return h, err
	}
	return h, nil
}

// Decode deserializes a profile written by Encode, validating the magic,
// the format version and the checksum before any structural parsing. The
// returned profile drives bit-identical predictions to the one written.
func Decode(data []byte) (*profiler.Profile, profiler.Options, error) {
	var h Header
	body, err := checkEnvelope(data)
	if err != nil {
		return nil, profiler.Options{}, err
	}
	d := &decoder{buf: body}
	if err := decodeHeaderFields(d, &h); err != nil {
		return nil, profiler.Options{}, err
	}
	p := &profiler.Profile{Name: h.Name, NumThreads: h.NumThreads}
	for ti := 0; ti < h.NumThreads; ti++ {
		tp, err := d.thread(ti)
		if err != nil {
			return nil, profiler.Options{}, err
		}
		p.Threads = append(p.Threads, tp)
	}
	if len(d.buf) != 0 {
		return nil, profiler.Options{}, fmt.Errorf("profilefmt: %d trailing bytes after payload", len(d.buf))
	}
	return p, h.Opts, nil
}

// thread decodes one thread's profile out of the shared payload.
func (d *decoder) thread(ti int) (*profiler.ThreadProfile, error) {
	nEpochs, err := d.count(1, "epoch")
	if err != nil {
		return nil, err
	}
	tp := &profiler.ThreadProfile{}
	for i := 0; i < nEpochs; i++ {
		e, err := d.epoch(ti, i)
		if err != nil {
			return nil, err
		}
		tp.Epochs = append(tp.Epochs, e)
	}
	nEvents, err := d.count(1, "event")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nEvents; i++ {
		kind, err := d.byte("event kind")
		if err != nil {
			return nil, err
		}
		obj, err := d.uvarint("event object")
		if err != nil {
			return nil, err
		}
		if obj > math.MaxUint32 {
			return nil, fmt.Errorf("profilefmt: event object id %d out of range", obj)
		}
		arg, err := d.varint("event argument")
		if err != nil {
			return nil, err
		}
		tp.Events = append(tp.Events, trace.Event{Kind: trace.SyncKind(kind), Obj: uint32(obj), Arg: int(arg)})
	}
	return tp, nil
}

func (d *decoder) epoch(ti, ei int) (*profiler.Epoch, error) {
	e := &profiler.Epoch{}
	var err error
	if e.Instr, err = d.uvarint("epoch instrs"); err != nil {
		return nil, err
	}
	for i := range e.Mix {
		if e.Mix[i], err = d.uvarint("class mix"); err != nil {
			return nil, err
		}
	}
	if e.Loads, err = d.uvarint("loads"); err != nil {
		return nil, err
	}
	if e.Stores, err = d.uvarint("stores"); err != nil {
		return nil, err
	}
	if e.ILineAccesses, err = d.uvarint("iline accesses"); err != nil {
		return nil, err
	}
	if e.CoherenceInvalidations, err = d.uvarint("coherence invalidations"); err != nil {
		return nil, err
	}

	nSites, err := d.count(2, "branch site")
	if err != nil {
		return nil, err
	}
	sites := make([]branchmodel.SiteRecord, 0, nSites)
	prevID := -1
	for i := 0; i < nSites; i++ {
		id, err := d.uvarint("site id")
		if err != nil {
			return nil, err
		}
		if id > math.MaxUint16 || int(id) <= prevID {
			return nil, fmt.Errorf("profilefmt: thread %d epoch %d: site id %d out of order or range", ti, ei, id)
		}
		prevID = int(id)
		count, err := d.uvarint("site count")
		if err != nil {
			return nil, err
		}
		bits, err := d.u64("site taken probability")
		if err != nil {
			return nil, err
		}
		sites = append(sites, branchmodel.SiteRecord{
			ID:    uint16(id),
			Stats: branchmodel.SiteStats{Count: count, TakenP: math.Float64frombits(bits)},
		})
	}
	e.Branch = branchmodel.ProfileFromSites(sites)

	hists := [3]**stats.Histogram{&e.PrivateRD, &e.GlobalRD, &e.InstrRD}
	for _, hp := range hists {
		h, err := d.histogram()
		if err != nil {
			return nil, err
		}
		*hp = h
	}

	nWindows, err := d.count(1, "window")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nWindows; i++ {
		w, err := d.window()
		if err != nil {
			return nil, err
		}
		e.Windows = append(e.Windows, w)
	}
	return e, nil
}

func (d *decoder) histogram() (*stats.Histogram, error) {
	flags, err := d.byte("histogram flags")
	if err != nil {
		return nil, err
	}
	var st stats.HistogramState
	if st.Count, err = d.uvarint("histogram count"); err != nil {
		return nil, err
	}
	if st.Infinite, err = d.uvarint("histogram infinite count"); err != nil {
		return nil, err
	}
	if st.SumBits, err = d.u64("histogram sum"); err != nil {
		return nil, err
	}
	max, err := d.uvarint("histogram max")
	if err != nil {
		return nil, err
	}
	if max > math.MaxInt64 {
		return nil, fmt.Errorf("profilefmt: histogram max %d out of range", max)
	}
	st.Max = int64(max)
	if flags&1 != 0 {
		st.Linear = make([]uint64, stats.LinearLen)
		if err := d.sparse(st.Linear, "linear bucket"); err != nil {
			return nil, err
		}
	}
	logLen, err := d.uvarint("log bucket count")
	if err != nil {
		return nil, err
	}
	if logLen > stats.MaxLogLen {
		return nil, fmt.Errorf("profilefmt: %d log buckets exceeds limit %d", logLen, stats.MaxLogLen)
	}
	if logLen > 0 {
		st.Log = make([]uint64, logLen)
	}
	if err := d.sparse(st.Log, "log bucket"); err != nil {
		return nil, err
	}
	h := stats.NewHistogram()
	if err := h.Restore(st); err != nil {
		return nil, fmt.Errorf("profilefmt: %w", err)
	}
	return h, nil
}

func (d *decoder) sparse(counts []uint64, what string) error {
	nnz, err := d.count(2, what)
	if err != nil {
		return err
	}
	idx := -1
	for i := 0; i < nnz; i++ {
		gap, err := d.uvarint(what + " gap")
		if err != nil {
			return err
		}
		if gap >= uint64(len(counts)-idx-1) {
			return fmt.Errorf("profilefmt: %s index past array end", what)
		}
		idx += int(gap) + 1
		if counts[idx], err = d.uvarint(what + " value"); err != nil {
			return err
		}
		if counts[idx] == 0 {
			return fmt.Errorf("profilefmt: zero %s in sparse encoding", what)
		}
	}
	return nil
}

func (d *decoder) window() (profiler.Window, error) {
	var w profiler.Window
	n, err := d.uvarint("window length")
	if err != nil {
		return w, err
	}
	if n > maxWindowLen || n > uint64(len(d.buf)) {
		return w, fmt.Errorf("profilefmt: window length %d exceeds remaining payload", n)
	}
	classes, err := d.bytes(int(n), "window classes")
	if err != nil {
		return w, err
	}
	w.Classes = make([]trace.Class, n)
	for i, c := range classes {
		w.Classes[i] = trace.Class(c)
	}
	for _, dep := range [2]*[]int16{&w.Dep1, &w.Dep2} {
		*dep = make([]int16, n)
		for i := range *dep {
			v, err := d.varint("window dependence")
			if err != nil {
				return w, err
			}
			if v < math.MinInt16 || v > math.MaxInt16 {
				return w, fmt.Errorf("profilefmt: window dependence %d out of range", v)
			}
			(*dep)[i] = int16(v)
		}
	}
	w.GlobalRD = make([]int64, n)
	for i := range w.GlobalRD {
		v, err := d.uvarint("window reuse distance")
		if err != nil {
			return w, err
		}
		switch {
		case v == 0:
			w.GlobalRD[i] = -1
		case v == 1:
			w.GlobalRD[i] = stats.Infinite
		case v-2 > math.MaxInt64:
			return w, fmt.Errorf("profilefmt: window reuse distance %d out of range", v)
		default:
			w.GlobalRD[i] = int64(v - 2)
		}
	}
	bits, err := d.bytes((int(n)+7)/8, "window load bitset")
	if err != nil {
		return w, err
	}
	w.IsLoad = make([]bool, n)
	for i := range w.IsLoad {
		w.IsLoad[i] = bits[i/8]&(1<<(uint(i)%8)) != 0
	}
	return w, checkWindow(&w)
}

// WriteFile atomically persists the profile at path on the host
// filesystem (see WriteFileFS).
func WriteFile(path string, p *profiler.Profile, opts profiler.Options) error {
	return WriteFileFS(storefs.OS, path, p, opts)
}

// WriteFileFS atomically persists the profile at path on fsys: the payload
// is written to a temporary file in the same directory, synced to stable
// storage, and renamed into place, so concurrent readers — and readers
// after a crash at any point — only ever observe complete profiles.
func WriteFileFS(fsys storefs.FS, path string, p *profiler.Profile, opts profiler.Options) error {
	data, err := Encode(p, opts)
	if err != nil {
		return err
	}
	return storefs.WriteAtomic(fsys, path, ".rppmprof-*", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// ReadFile loads a profile persisted with WriteFile.
func ReadFile(path string) (*profiler.Profile, profiler.Options, error) {
	return ReadFileFS(storefs.OS, path)
}

// ReadFileFS loads a profile persisted with WriteFileFS from fsys.
func ReadFileFS(fsys storefs.FS, path string) (*profiler.Profile, profiler.Options, error) {
	data, err := readCapped(fsys, path)
	if err != nil {
		return nil, profiler.Options{}, err
	}
	p, opts, err := Decode(data)
	if err != nil {
		return nil, profiler.Options{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, opts, nil
}

func readCapped(fsys storefs.FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := storefs.ReadAllCapped(f, maxFileBytes)
	if err != nil {
		return nil, fmt.Errorf("profilefmt: %s: %w", path, err)
	}
	return data, nil
}
