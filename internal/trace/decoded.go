package trace

import "unsafe"

// Decoded is a fully decoded struct-of-arrays view of a Recorded: every
// thread's instruction stream expanded into flat column arrays, with the
// synchronization events extracted to the side. It exists for design-space
// sweeps, where N configurations replay the same recording — decoding the
// packed words once and handing every simulation zero-copy column windows
// turns the per-configuration stream cost into a few slice assignments per
// synchronization segment.
//
// A Decoded trades memory for decode time (28 bytes per instruction
// against the recording's ~8), so it is meant to be built transiently for
// the duration of one sweep, not cached: Session.SimulateSweep builds one,
// fans the configurations out over it, and drops it.
//
// Decoded implements Program. Cursors returned by Thread are independent
// and never write the shared arrays, so any number of concurrent replays
// may share one Decoded (the engine's sweep fan-out does).
type Decoded struct {
	name    string
	bound   int // DataLineBound of the source recording
	threads []decodedThread
}

type decodedThread struct {
	cols  Columns // full-length column arrays
	syncs []syncPoint
}

// syncPoint is a synchronization event at instruction position pos: it
// occurred after pos instructions of the thread had been decoded.
type syncPoint struct {
	pos int
	ev  Event
}

// Columns is a struct-of-arrays run of decoded instructions: all field
// slices share one length, and entry i across the slices describes the
// i-th instruction. Synchronization events are not represented in columns;
// they end a DecodedCursor's column window (see NextColumns).
type Columns struct {
	PC       []uint64
	Addr     []uint64 // data address; zero for non-memory classes
	Class    []Class
	Dst      []int8 // destination register, -1 if none
	Src1     []int8
	Src2     []int8
	BranchID []uint16
	Taken    []bool
}

func newColumns(n int) Columns {
	return Columns{
		PC:       make([]uint64, n),
		Addr:     make([]uint64, n),
		Class:    make([]Class, n),
		Dst:      make([]int8, n),
		Src1:     make([]int8, n),
		Src2:     make([]int8, n),
		BranchID: make([]uint16, n),
		Taken:    make([]bool, n),
	}
}

// slice returns a view of entries [lo, hi) of every column.
func (c *Columns) slice(lo, hi int) Columns {
	return Columns{
		PC: c.PC[lo:hi], Addr: c.Addr[lo:hi],
		Class: c.Class[lo:hi], Dst: c.Dst[lo:hi],
		Src1: c.Src1[lo:hi], Src2: c.Src2[lo:hi],
		BranchID: c.BranchID[lo:hi], Taken: c.Taken[lo:hi],
	}
}

// Decode expands a recording into its struct-of-arrays form: one replay
// pass per thread through ReplayCursor.NextBatch, scattering instructions
// into the column arrays and recording where each sync event falls.
func Decode(rec *Recorded) *Decoded {
	d := &Decoded{
		name:    rec.Name(),
		bound:   rec.DataLineBound(),
		threads: make([]decodedThread, rec.NumThreads()),
	}
	var buf [256]Item
	for tid := range d.threads {
		dt := &d.threads[tid]
		// Count instructions first so every column array is allocated
		// exactly once at full length. The count pass sees the data words
		// of two-word sequences (sync-ext, set-pc-ext, wide) as arbitrary
		// bits, so it may over-count — harmless, the arrays are sliced to
		// the decoded length below — but it can never under-count: every
		// real instruction word is counted regardless of what precedes it.
		total := 0
		for _, w := range rec.threads[tid] {
			if w&recCtlBit == 0 || (w&recCtlMask)>>recCtlShift == ctlWide {
				total++
			}
		}
		cols := newColumns(total)
		cur := rec.Replay(tid)
		pos := 0
		for n := cur.NextBatch(buf[:]); n > 0; n = cur.NextBatch(buf[:]) {
			for i := range buf[:n] {
				it := &buf[i]
				if it.IsSync {
					dt.syncs = append(dt.syncs, syncPoint{pos: pos, ev: it.Sync})
					continue
				}
				if pos >= total {
					panic("trace: decoded column under-count")
				}
				in := &it.Instr
				cols.PC[pos], cols.Addr[pos], cols.Class[pos] = in.PC, in.Addr, in.Class
				cols.Dst[pos], cols.Src1[pos], cols.Src2[pos] = in.Dst, in.Src1, in.Src2
				cols.BranchID[pos], cols.Taken[pos] = in.BranchID, in.Taken
				pos++
			}
		}
		dt.cols = cols.slice(0, pos)
	}
	return d
}

// Name implements Program.
func (d *Decoded) Name() string { return d.name }

// NumThreads implements Program.
func (d *Decoded) NumThreads() int { return len(d.threads) }

// Thread implements Program; each call returns an independent zero-copy
// cursor over the shared decoded arrays.
func (d *Decoded) Thread(tid int) ThreadStream { return &DecodedCursor{t: &d.threads[tid]} }

// DataLineBound returns the source recording's distinct-data-line bound,
// so the simulator's directory pre-sizing works identically through the
// decoded view.
func (d *Decoded) DataLineBound() int { return d.bound }

// SizeBytes returns the resident size of the decoded arrays, for callers
// that do keep a Decoded alive.
func (d *Decoded) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*d))
	for i := range d.threads {
		t := &d.threads[i]
		n += int64(len(t.cols.PC))*28 + int64(len(t.syncs))*int64(unsafe.Sizeof(syncPoint{}))
	}
	return n
}

// DecodedCursor replays one thread of a Decoded, both as zero-copy column
// windows (NextColumns repoints the caller's column slices at the shared
// arrays; TakeSync collects the event that ends each window) and as a
// ThreadStream for consumers that want Items, drawing from one position.
// Consumers may switch between the two views between calls.
type DecodedCursor struct {
	t        *decodedThread
	pos      int // instructions consumed
	syncIdx  int // next sync point
	syncTurn bool
}

// NextColumns returns the instructions up to the next synchronization
// event as a read-only view of the shared decoded arrays: the caller's
// slice headers are repointed, no data is copied. It returns 0 while an
// event is pending (collect it with TakeSync) and once the stream is
// exhausted, which a false TakeSync distinguishes.
func (c *DecodedCursor) NextColumns(cols *Columns) int {
	if c.syncTurn {
		return 0
	}
	end := len(c.t.cols.PC)
	if c.syncIdx < len(c.t.syncs) {
		end = c.t.syncs[c.syncIdx].pos
	}
	n := end - c.pos
	*cols = c.t.cols.slice(c.pos, end)
	c.pos = end
	if c.syncIdx < len(c.t.syncs) {
		c.syncTurn = true
	}
	return n
}

// TakeSync consumes the synchronization event that ended the last column
// window, if any.
func (c *DecodedCursor) TakeSync() (Event, bool) {
	if !c.syncTurn {
		return Event{}, false
	}
	c.syncTurn = false
	ev := c.t.syncs[c.syncIdx].ev
	c.syncIdx++
	return ev, true
}

// Next implements ThreadStream.
func (c *DecodedCursor) Next() (Item, bool) {
	var buf [1]Item
	if c.NextBatch(buf[:]) == 0 {
		return Item{}, false
	}
	return buf[0], true
}

// NextBatch implements ThreadStream, interleaving instructions and sync
// events exactly as a ReplayCursor would.
func (c *DecodedCursor) NextBatch(buf []Item) int {
	n := 0
	for n < len(buf) {
		if c.syncTurn {
			ev, _ := c.TakeSync()
			buf[n] = Item{IsSync: true, Sync: ev}
			n++
			continue
		}
		end := len(c.t.cols.PC)
		if c.syncIdx < len(c.t.syncs) {
			end = c.t.syncs[c.syncIdx].pos
		}
		if c.pos == end {
			if c.syncIdx >= len(c.t.syncs) {
				break // exhausted
			}
			c.syncTurn = true
			continue
		}
		cols := &c.t.cols
		for n < len(buf) && c.pos < end {
			i := c.pos
			in := &buf[n].Instr
			buf[n].IsSync = false
			in.Class = cols.Class[i]
			in.Dst = cols.Dst[i]
			in.Src1 = cols.Src1[i]
			in.Src2 = cols.Src2[i]
			in.Addr = cols.Addr[i]
			in.PC = cols.PC[i]
			in.BranchID = cols.BranchID[i]
			in.Taken = cols.Taken[i]
			c.pos++
			n++
		}
	}
	return n
}
