package trace

import "fmt"

// This file implements the record-once/replay-many trace subsystem. The
// encoding below is specified normatively in docs/TRACE_FORMAT.md — keep
// the two in lockstep, and bump FileVersion (file.go) on any change.
//
// A Recorded is a compact immutable capture of a Program's item streams:
// each thread's stream is packed into a flat []uint64 word stream, roughly
// one word (8 bytes) per dynamic instruction versus the 56-byte in-memory
// Item — small enough to keep resident per (benchmark, seed, scale) and
// cheap enough to decode that replaying costs a fraction of regenerating
// the stream from its prng-driven generators. Decoding is stateless across
// cursors: any number of goroutines may replay the same Recorded
// concurrently through independent cursors, which is what lets a
// design-space sweep evaluate many microarchitecture configurations
// against one captured trace.
//
// # Encoding
//
// The common case is one 64-bit word per instruction (bit 63 clear):
//
//	bits  0..3   instruction class
//	bits  4..10  Dst+1  (0 means "no destination")
//	bits 11..17  Src1+1
//	bits 18..24  Src2+1
//	bits 25..30  zigzag(PC delta − 4): PCs advance by one 4-byte slot
//	             between consecutive instructions almost always, so the
//	             common delta encodes as 0
//	bits 31..61  payload:
//	             mem    — bit 31 selects one of two per-thread address
//	                      registers, bits 32..61 hold the zigzag byte
//	                      delta against it (two registers track the
//	                      private and shared regions independently, so
//	                      region alternation stays narrow)
//	             branch — bit 31 is the taken flag, bits 32..47 the site id
//	bit 62       reserved (zero)
//	bit 63       clear
//
// Everything that does not fit a plain word is a control word (bit 63
// set, subtype in bits 60..62): synchronization events (inline or with a
// 64-bit arg extension), absolute PC re-bases for jumps the 6-bit delta
// cannot express, and a wide-instruction escape carrying a full 64-bit
// address extension for warm-up accesses and cross-region hops beyond the
// 30-bit delta range.
const (
	recClassBits = 4
	recRegBits   = 7
	recPCBits    = 6
	recPCShift   = recClassBits + 3*recRegBits // 25
	recPayShift  = recPCShift + recPCBits      // 31
	recPayBits   = 62 - recPayShift            // 31
	recCtlBit    = uint64(1) << 63             // control-word marker
	recCtlShift  = 60                          // control subtype position
	recCtlMask   = uint64(7) << recCtlShift    // subtype mask
	recMemBits   = recPayBits - 1              // 30-bit zigzag address delta
	recPCStride  = 4                           // assumed PC advance per instruction
)

// Control subtypes.
const (
	ctlSync     = iota // inline sync event: kind(4) | obj(32) | arg(24, signed)
	ctlSyncExt         // sync event, int64 arg in the next word
	ctlSetPC           // re-base the PC chain: bits 0..58 hold the next PC
	ctlSetPCExt        // re-base the PC chain: next word holds the next PC
	ctlWide            // wide instruction: fields inline, address in the next word
)

// Wide-instruction field layout (within the control word's low bits):
// class(4) | dst+1(7) | src1+1(7) | src2+1(7) | taken(1) | sel(1) |
// branchID(16) | zigzag(pcDelta-4)(6) — 49 bits.
const (
	wideTakenShift = recClassBits + 3*recRegBits // 25
	wideSelShift   = wideTakenShift + 1          // 26
	wideIDShift    = wideSelShift + 1            // 27
	widePCShift    = wideIDShift + 16            // 43
)

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// Recorded is an immutable packed recording of a Program. It implements
// Program itself: Thread returns a fresh decode cursor over the packed
// words, so the profiler, the simulator and any number of concurrent
// replays consume the recording exactly as they would the original
// generative program. Recordings are safe for concurrent replay: cursors
// share only the read-only word streams.
type Recorded struct {
	name    string
	threads [][]uint64
	instrs  uint64
	syncs   uint64
	// memRefs counts data memory accesses — a configuration-independent
	// upper bound on the distinct-line footprint (measured at 1–4× the
	// footprint across the suite), captured for free during the recording
	// pass so replay consumers (the simulator's coherence directory) can
	// pre-size their per-line structures instead of rehash-growing them
	// on every replay.
	memRefs uint64
}

// Name implements Program.
func (r *Recorded) Name() string { return r.name }

// NumThreads implements Program.
func (r *Recorded) NumThreads() int { return len(r.threads) }

// Thread implements Program; each call returns an independent cursor
// positioned at the thread's first item.
func (r *Recorded) Thread(tid int) ThreadStream { return r.Replay(tid) }

// Replay returns a fresh decode cursor for one thread. Cursors are
// independent: concurrent replays of the same recording never share
// mutable state.
func (r *Recorded) Replay(tid int) *ReplayCursor {
	return &ReplayCursor{words: r.threads[tid]}
}

// Instructions returns the total recorded dynamic instruction count.
func (r *Recorded) Instructions() uint64 { return r.instrs }

// SyncEvents returns the total recorded synchronization event count.
func (r *Recorded) SyncEvents() uint64 { return r.syncs }

// Words returns the total number of packed 64-bit words.
func (r *Recorded) Words() int {
	n := 0
	for _, t := range r.threads {
		n += len(t)
	}
	return n
}

// DataLineBound returns an upper bound on the number of distinct data
// lines the recorded program touches: its data memory access count,
// capped at 256K lines so a per-line table pre-sized from it stays
// within single-digit megabytes even for access-heavy workloads (a
// footprint beyond the cap just falls back to growing from there).
func (r *Recorded) DataLineBound() int {
	const lineCap = 1 << 18
	if r.memRefs > lineCap {
		return lineCap
	}
	return int(r.memRefs)
}

// BytesPerItem reports the average encoded size of one recorded item.
func (r *Recorded) BytesPerItem() float64 {
	items := r.instrs + r.syncs
	if items == 0 {
		return 0
	}
	return float64(8*r.Words()) / float64(items)
}

// recorder is the per-thread encoder state; it mirrors ReplayCursor.
type recorder struct {
	words   []uint64
	prevPC  uint64
	addrReg [2]uint64
	lastSel int
}

// encodeItem appends one item to the thread's word stream.
func (rc *recorder) encodeItem(it *Item) error {
	if it.IsSync {
		return rc.encodeSync(it.Sync)
	}
	return rc.encodeInstr(&it.Instr)
}

func (rc *recorder) encodeSync(e Event) error {
	if int(e.Kind) >= numSyncKinds {
		return fmt.Errorf("trace: cannot record sync kind %d", e.Kind)
	}
	w := recCtlBit | uint64(e.Kind) | uint64(e.Obj)<<4
	arg := int64(e.Arg)
	if arg >= -(1<<23) && arg < 1<<23 {
		w |= uint64(ctlSync) << recCtlShift
		w |= (uint64(arg) & (1<<24 - 1)) << 36
		rc.words = append(rc.words, w)
		return nil
	}
	w |= uint64(ctlSyncExt) << recCtlShift
	rc.words = append(rc.words, w, uint64(arg))
	return nil
}

// regField validates and biases a register operand for a 7-bit field.
func regField(r int8) (uint64, bool) {
	v := int16(r) + 1
	return uint64(v), v >= 0 && v < 1<<recRegBits
}

func (rc *recorder) encodeInstr(in *Instr) error {
	if int(in.Class) >= 1<<recClassBits {
		return fmt.Errorf("trace: cannot record instruction class %d", in.Class)
	}
	dst, ok1 := regField(in.Dst)
	s1, ok2 := regField(in.Src1)
	s2, ok3 := regField(in.Src2)
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("trace: cannot record register operands (%d, %d, %d)", in.Dst, in.Src1, in.Src2)
	}
	regs := uint64(in.Class) | dst<<recClassBits |
		s1<<(recClassBits+recRegBits) | s2<<(recClassBits+2*recRegBits)

	// PC chain: the common inter-instruction delta is +recPCStride.
	pcZ := zigzag(int64(in.PC - rc.prevPC - recPCStride))
	if pcZ >= 1<<recPCBits {
		// Re-base with a control word; the instruction then encodes delta 0.
		if in.PC < 1<<59 {
			rc.words = append(rc.words, recCtlBit|uint64(ctlSetPC)<<recCtlShift|in.PC)
		} else {
			rc.words = append(rc.words, recCtlBit|uint64(ctlSetPCExt)<<recCtlShift, in.PC)
		}
		rc.prevPC = in.PC - recPCStride
		pcZ = 0
	}
	rc.prevPC = in.PC

	if in.Class.IsMem() && in.BranchID == 0 && !in.Taken {
		d0 := zigzag(int64(in.Addr - rc.addrReg[0]))
		d1 := zigzag(int64(in.Addr - rc.addrReg[1]))
		sel, dz := 0, d0
		if d1 < d0 {
			sel, dz = 1, d1
		}
		if dz < 1<<recMemBits {
			rc.addrReg[sel] = in.Addr
			rc.lastSel = sel
			rc.words = append(rc.words,
				regs|pcZ<<recPCShift|(uint64(sel)|dz<<1)<<recPayShift)
			return nil
		}
		// Out of delta range (warm-up or a cross-region hop): wide escape
		// replacing the colder address register.
		sel = 1 - rc.lastSel
		rc.addrReg[sel] = in.Addr
		rc.lastSel = sel
		w := recCtlBit | uint64(ctlWide)<<recCtlShift | regs |
			uint64(sel)<<wideSelShift | pcZ<<widePCShift
		rc.words = append(rc.words, w, in.Addr)
		return nil
	}

	if in.Class == Branch && in.Addr == 0 {
		var pay uint64
		if in.Taken {
			pay = 1
		}
		pay |= uint64(in.BranchID) << 1
		rc.words = append(rc.words, regs|pcZ<<recPCShift|pay<<recPayShift)
		return nil
	}
	if in.BranchID == 0 && !in.Taken && in.Addr == 0 {
		rc.words = append(rc.words, regs|pcZ<<recPCShift)
		return nil
	}
	// Unusual field combinations (hand-built programs only: branch payloads
	// on non-branch classes, addresses on non-memory classes) spill to the
	// wide escape, which carries every field losslessly.
	w := recCtlBit | uint64(ctlWide)<<recCtlShift | regs | pcZ<<widePCShift |
		uint64(in.BranchID)<<wideIDShift
	if in.Taken {
		w |= 1 << wideTakenShift
	}
	if in.Class.IsMem() {
		sel := 1 - rc.lastSel
		rc.addrReg[sel] = in.Addr
		rc.lastSel = sel
		w |= uint64(sel) << wideSelShift
	}
	rc.words = append(rc.words, w, in.Addr)
	return nil
}

// Record captures a Program into its packed replayable form. It drains
// every thread stream once, so it costs one generation pass; every replay
// after that decodes the packed words instead of regenerating.
//
// Register operands must lie in [-1, 126] (the architectural contract is
// [-1, NumRegs-1]) and instruction classes in [0, 15]; Record reports an
// error for streams outside that envelope rather than recording them
// lossily.
func Record(p Program) (*Recorded, error) {
	r := &Recorded{name: p.Name(), threads: make([][]uint64, p.NumThreads())}
	var buf [256]Item
	capHint := 1024 // grown to the largest thread seen: threads of one program are similar
	for tid := 0; tid < p.NumThreads(); tid++ {
		rc := recorder{words: make([]uint64, 0, capHint)}
		stream := p.Thread(tid)
		for {
			n := stream.NextBatch(buf[:])
			if n == 0 {
				break
			}
			for i := range buf[:n] {
				if buf[i].IsSync {
					r.syncs++
				} else {
					r.instrs++
					if buf[i].Instr.Class.IsMem() {
						r.memRefs++
					}
				}
				if err := rc.encodeItem(&buf[i]); err != nil {
					return nil, fmt.Errorf("%s thread %d: %w", p.Name(), tid, err)
				}
			}
		}
		r.threads[tid] = rc.words
		if len(rc.words) > capHint {
			capHint = len(rc.words)
		}
	}
	return r, nil
}

// ReplayCursor decodes one thread's packed words back into Items. Its
// NextBatch is the one decoder of the packed format: Decode builds its
// struct-of-arrays view from it. Decoding writes straight into the
// caller's batch buffer, so a replay pass touches one word load plus a
// handful of shifts per instruction. Cursors are single-goroutine; create
// one per replaying consumer.
type ReplayCursor struct {
	words   []uint64
	pos     int
	prevPC  uint64
	addrReg [2]uint64
}

// Next implements ThreadStream.
func (c *ReplayCursor) Next() (Item, bool) {
	var buf [1]Item
	if c.NextBatch(buf[:]) == 0 {
		return Item{}, false
	}
	return buf[0], true
}

// NextBatch implements ThreadStream: it decodes up to len(buf) items. Per
// the ThreadStream contract the Sync field of instruction items is left
// unspecified (stale buffer bytes); sync items are written in full.
func (c *ReplayCursor) NextBatch(buf []Item) int {
	n := 0
	words, pos := c.words, c.pos
	prevPC := c.prevPC
	addrReg := c.addrReg
	for n < len(buf) && pos < len(words) {
		w := words[pos]
		pos++
		if w&recCtlBit == 0 {
			it := &buf[n]
			n++
			it.IsSync = false
			in := &it.Instr
			cls := Class(w & (1<<recClassBits - 1))
			in.Class = cls
			in.Dst = int8((w>>recClassBits)&(1<<recRegBits-1)) - 1
			in.Src1 = int8((w>>(recClassBits+recRegBits))&(1<<recRegBits-1)) - 1
			in.Src2 = int8((w>>(recClassBits+2*recRegBits))&(1<<recRegBits-1)) - 1
			pc := prevPC + recPCStride + uint64(unzigzag((w>>recPCShift)&(1<<recPCBits-1)))
			in.PC = pc
			prevPC = pc
			pay := w >> recPayShift & (1<<recPayBits - 1)
			in.Addr = 0
			in.BranchID = 0
			in.Taken = false
			if cls == Load || cls == Store {
				sel := pay & 1
				a := addrReg[sel] + uint64(unzigzag(pay>>1))
				addrReg[sel] = a
				in.Addr = a
			} else if cls == Branch {
				in.Taken = pay&1 != 0
				in.BranchID = uint16(pay >> 1)
			}
			continue
		}
		switch (w & recCtlMask) >> recCtlShift {
		case ctlSync, ctlSyncExt:
			it := &buf[n]
			n++
			*it = Item{IsSync: true, Sync: Event{
				Kind: SyncKind(w & (1<<recClassBits - 1)),
				Obj:  uint32(w >> 4),
			}}
			if (w&recCtlMask)>>recCtlShift == ctlSyncExt {
				it.Sync.Arg = int(int64(words[pos]))
				pos++
			} else {
				it.Sync.Arg = int(int64(w<<4) >> 40) // sign-extend bits 36..59
			}
		case ctlSetPC:
			prevPC = (w &^ (recCtlBit | recCtlMask)) - recPCStride
		case ctlSetPCExt:
			prevPC = words[pos] - recPCStride
			pos++
		case ctlWide:
			it := &buf[n]
			n++
			it.IsSync = false
			in := &it.Instr
			cls := Class(w & (1<<recClassBits - 1))
			in.Class = cls
			in.Dst = int8((w>>recClassBits)&(1<<recRegBits-1)) - 1
			in.Src1 = int8((w>>(recClassBits+recRegBits))&(1<<recRegBits-1)) - 1
			in.Src2 = int8((w>>(recClassBits+2*recRegBits))&(1<<recRegBits-1)) - 1
			in.Taken = w>>wideTakenShift&1 != 0
			in.BranchID = uint16(w >> wideIDShift)
			pc := prevPC + recPCStride + uint64(unzigzag(w>>widePCShift&(1<<recPCBits-1)))
			in.PC = pc
			prevPC = pc
			in.Addr = words[pos]
			pos++
			if cls == Load || cls == Store {
				addrReg[w>>wideSelShift&1] = in.Addr
			}
		}
	}
	c.pos = pos
	c.prevPC = prevPC
	c.addrReg = addrReg
	return n
}
