package cpu

import (
	"repro/internal/mmu"
	"repro/internal/vax"
)

// The decoded-instruction cache. Re-executing straight-line code and
// loop bodies used to re-parse every operand specifier byte by byte
// through the MMU; the cache keys fully decoded instructions (opcode
// row + specifier templates + length) by the physical address of the
// opcode byte, so re-execution translates the PC once and replays the
// templates. Entries whose operands are all registers and literals are
// also bound when recorded (sbBind), and a hit on one runs the bound
// form without the cursor or the generic handler. The run loop
// (exception.go) tests for such a hit with one compare: btag. Bound
// memory moves (bound.go) have their own tag, mtag, tested only when
// btag misses.
//
// Keying by physical address makes invalidation precise: a write to
// physical memory drops the decodes whose bytes it overwrites no matter
// which virtual mapping performed the write (guest stores, VMM stores
// into VM memory, DMA). Each entry records its byte length, and each
// physical page has a 16-bit line mask: bit i is set while 32-byte line
// i may hold a cached decode's bytes. A write whose lines have no bit
// set (the common case: data, stacks) costs one test. Otherwise it
// probes only the slots of instructions that could reach it,
// [pa-maxLen+1, pa+n) clipped to the page, where maxLen is the longest
// installed entry, and drops the entries it overlaps. A write clears
// the bits of the lines it covers whole; other lines of dropped entries
// keep theirs: a stale bit costs a probe, never a wrong answer. Masks
// are 16-bit because 8-byte lines in 64-bit masks hit no more often on
// the §7.3 mix and quadruple the per-page overhead.
//
// Coherence rules (see DESIGN.md):
//
//   - Every entry lies on one page: an instruction whose recorded bytes
//     cross a page boundary is never installed, and runs through the
//     cold path on every execution.
//   - Guest stores through the CPU's own path invalidate inline
//     (physStoreByte/physStoreLong), exactly.
//   - Writers that bypass the CPU (VMM writes into VM physical memory,
//     device DMA, image load, clone, destroy, run recycling, SVPCTX's
//     PCB save) call InvalidateDecode, which takes the same path for
//     each page the range touches. Snapshot restore calls
//     FlushDecodeCache.
//   - An instruction that stores into its own page is not installed:
//     that rule stays page-granular.
//   - No entry needs TLB-coherence work: its tag is verified against a
//     fresh translation of the PC on every execution, so a mapping
//     change redirects or misses exactly like the TLB does, and TBIA
//     and TBIS never reach the cache.
//   - btag equals tag exactly while the entry is valid and bound with
//     no memory operand, and mtag while it is valid and bound with one;
//     each holds noBTag otherwise: initDecodeCache, finishRecord and
//     dropDecode, through which every drop goes, keep them so. The
//     entries of a linked counting loop (bound.loop, see link) are the
//     exception: neither carries btag, so a run ends at either, and
//     step tests for a loop head, with tag, only after both tags miss.
//     A loop is linked whenever one of its entries is recorded while
//     the other is valid, and dropping or evicting either gives the
//     other its btag back (unlink), so no untagged entry outlives its
//     link.

const (
	dcSlots     = 1024 // direct-mapped entries, indexed by PA low bits
	dcItemsMax  = 6    // recorded decode items per instruction
	dcLineShift = 5    // 32-byte lines: 16 per page, one uint16 mask
)

// Decode items: one per operand specifier or raw instruction-stream
// fetch (branch displacements), in stream order. A specifier item is
// its template; a raw item is a dspec of one of the kinds below, with
// the value in imm and endOff the PC offset after the fetch.
const (
	diByte = evDispDef + 1 + iota // a raw byte fetched via fetchStream8
	diWord                        // a raw word fetched via fetchStream16
)

// dcEntry is one cached decoded instruction.
type dcEntry struct {
	tag   uint32 // physical address of the opcode byte
	ie    *instrEntry
	len   uint8   // recorded bytes from the opcode on (cursor.lastOff); 0 = empty slot
	opLen uint8   // opcode length (2 for 0xFD-prefixed)
	n     uint8   // recorded items
	btag  uint32  // tag if valid and bound, no memory operand; else noBTag
	mtag  uint32  // tag if valid and a bound memory move; else noBTag
	bound sbBound // pre-bound form (fbNone: replay through the handler)
	items [dcItemsMax]dspec
}

// noBTag is the btag of slot i's entries when they are not a bound
// hit: lookups index the slot by a PA's low bits, and this value's low
// bits name another slot, so no PA can ever match it.
func noBTag(i uint32) uint32 { return i ^ 1 }

type dcache struct {
	entries *[dcSlots]dcEntry
	lines   []uint16 // per physical page: lines that may hold cached decoded bytes
	maxLen  uint32   // longest entry installed since the last flush, in bytes
}

// lineBits returns the mask of the lines holding page offsets
// [off, end), end > off.
func lineBits(off, end uint32) uint16 {
	return uint16(2<<((end-1)>>dcLineShift) - 1<<(off>>dcLineShift))
}

// fullLines returns the mask of the lines that page offsets [off, end)
// cover whole.
func fullLines(off, end uint32) uint16 {
	lo, hi := (off+1<<dcLineShift-1)>>dcLineShift, end>>dcLineShift
	if hi <= lo {
		return 0
	}
	return uint16(1<<hi - 1<<lo)
}

// mark records that the n bytes at pa (on one page) hold decoded bytes.
func (d *dcache) mark(pa, n uint32) {
	off := pa & vax.PageMask
	d.lines[pa/vax.PageSize] |= lineBits(off, off+n)
}

// Cursor modes.
const (
	curOff    uint8 = iota
	curRecord       // cold decode: capture items for a new entry
	curReplay       // cache hit: feed recorded items to the handlers
)

// cursor mediates between the instruction handlers and the cache for
// the instruction currently executing.
type cursor struct {
	mode     uint8
	n        uint8 // record: items captured; replay: items consumed
	lastOff  uint8 // record: furthest PC offset any item reached
	overflow bool  // record: more items than an entry can hold
	aborted  bool  // record: the instruction stored into its own pages
	recPage  uint32
	ent      *dcEntry // replay source
	items    [dcItemsMax]dspec
}

// record captures one decode item while recording (no-op otherwise).
func (cu *cursor) record(it dspec) {
	if cu.mode != curRecord {
		return
	}
	if cu.n >= dcItemsMax {
		cu.overflow = true
		return
	}
	cu.items[cu.n] = it
	cu.n++
	if it.endOff > cu.lastOff {
		cu.lastOff = it.endOff
	}
}

// nextSpec yields the next recorded specifier template on replay. A
// kind mismatch or exhaustion returns false and the caller parses the
// live stream instead (always correct: PC tracks every replayed item).
func (cu *cursor) nextSpec() (dspec, bool) {
	e := cu.ent
	if cu.n >= e.n || e.items[cu.n].kind >= diByte {
		return dspec{}, false
	}
	t := e.items[cu.n]
	cu.n++
	return t, true
}

// nextRaw yields the next recorded raw fetch of the given kind.
func (cu *cursor) nextRaw(kind uint8) (uint32, uint8, bool) {
	e := cu.ent
	if cu.n >= e.n || e.items[cu.n].kind != kind {
		return 0, 0, false
	}
	it := &e.items[cu.n]
	cu.n++
	return it.imm, it.endOff, true
}

// fetchStream8 reads the next instruction-stream byte through the
// decode cursor: branch displacements and specifier peeks recorded once
// and replayed on cache hits.
func (c *CPU) fetchStream8() (byte, error) {
	if c.cur.mode == curReplay {
		if v, off, ok := c.cur.nextRaw(diByte); ok {
			c.R[RegPC] = c.instStartPC + uint32(off)
			return byte(v), nil
		}
	}
	b, err := c.fetchByte()
	if err != nil {
		return 0, err
	}
	c.cur.record(dspec{kind: diByte, endOff: uint8(c.R[RegPC] - c.instStartPC), imm: uint32(b)})
	return b, nil
}

// fetchStream16 is fetchStream8 for word displacements.
func (c *CPU) fetchStream16() (uint16, error) {
	if c.cur.mode == curReplay {
		if v, off, ok := c.cur.nextRaw(diWord); ok {
			c.R[RegPC] = c.instStartPC + uint32(off)
			return uint16(v), nil
		}
	}
	w, err := c.fetchWord()
	if err != nil {
		return 0, err
	}
	c.cur.record(dspec{kind: diWord, endOff: uint8(c.R[RegPC] - c.instStartPC), imm: uint32(w)})
	return w, nil
}

func (c *CPU) initDecodeCache() {
	pages := c.Mem.Pages()
	c.dc.entries = new([dcSlots]dcEntry)
	for i := range c.dc.entries {
		c.dc.entries[i].btag = noBTag(uint32(i))
		c.dc.entries[i].mtag = noBTag(uint32(i))
	}
	c.dc.lines = make([]uint16, pages)
}

// execOneAt fetches, decodes and executes the instruction at PC, whose
// translation (pa, paOK) the caller has already made, replaying from
// the decoded-instruction cache when pa hits a valid entry.
func (c *CPU) execOneAt(pa uint32, paOK bool) error {
	if paOK {
		e := &c.dc.entries[pa&(dcSlots-1)]
		if e.len != 0 && e.tag == pa {
			c.Stats.DecodeHits++
			return c.execReplay(e)
		}
	}
	return c.execCold(pa, paOK)
}

// execReplay runs a cached decoded instruction whose opcode is at
// instStartPC. A pre-bound register/literal entry runs its bound form;
// any other, a bound memory move included, replays through its
// handler: PC skips the opcode byte(s), the precharged cost matches the
// cold path, and the handler consumes the recorded items through the
// cursor.
func (c *CPU) execReplay(e *dcEntry) error {
	if e.bound.kind != fbNone && e.bound.mems == 0 {
		c.Stats.BoundHits++
		c.execBound(&e.bound, c.instStartPC)
		return nil
	}
	cu := &c.cur
	cu.mode = curReplay
	cu.n = 0
	cu.ent = e
	c.R[RegPC] += uint32(e.opLen)
	c.Cycles += uint64(e.ie.cost)
	err := e.ie.fn(c, e.ie)
	cu.mode = curOff
	return err
}

// execCold takes the full fetch-and-parse path and, when the
// instruction is cacheable, records a cache entry as a side effect.
func (c *CPU) execCold(pa uint32, paOK bool) error {
	c.Stats.DecodeMisses++
	cu := &c.cur
	cu.mode = curOff
	va := c.R[RegPC]

	b, err := c.fetchByte()
	if err != nil {
		return err
	}
	op := uint16(b)
	opLen := uint8(1)
	if b == vax.ExtPrefix {
		b2, err := c.fetchByte()
		if err != nil {
			return err
		}
		op = 0xFD00 | uint16(b2)
		opLen = 2
	}
	ie := c.lookup(op)
	if ie == nil {
		c.Cycles += CostBase
		return c.reservedInstruction()
	}

	if !paOK {
		// The PC's page was not in the TLB when the caller looked; the
		// opcode fetch above walked it in, so one retry usually makes
		// the instruction cacheable on its first execution.
		pa, paOK = c.MMU.TranslateFast(va, mmu.Read, c.psl.Cur())
	}
	if paOK && c.cacheablePA(pa) {
		cu.mode = curRecord
		cu.n = 0
		cu.lastOff = opLen
		cu.overflow = false
		cu.aborted = false
		cu.recPage = pa / vax.PageSize
	}

	c.Cycles += uint64(ie.cost)
	err = ie.fn(c, ie)
	if cu.mode == curRecord {
		cu.mode = curOff
		c.finishRecord(pa, opLen, ie)
	}
	return err
}

// cacheablePA reports whether an instruction whose opcode lives at pa
// may be cached: inside physical memory (the line masks' domain) and
// not in a device window, whose reads have side effects.
func (c *CPU) cacheablePA(pa uint32) bool {
	if pa/vax.PageSize >= uint32(len(c.dc.lines)) {
		return false
	}
	for _, h := range c.mmio {
		base, size := h.Window()
		if pa >= vax.PageBase(base) && pa < base+size {
			return false
		}
	}
	return true
}

// finishRecord installs the just-recorded decode into its slot. Entries
// are installed even when the instruction faulted mid-decode: replay
// falls back to the live stream once the recorded items run out, so a
// partial entry is merely less effective, never wrong. An instruction
// whose recorded bytes cross a page boundary is not installed: every
// entry lies on the page its tag translates.
func (c *CPU) finishRecord(pa uint32, opLen uint8, ie *instrEntry) {
	cu := &c.cur
	off, n := pa&vax.PageMask, uint32(cu.lastOff)
	if cu.overflow || cu.aborted || off+n > vax.PageSize {
		return
	}
	e := &c.dc.entries[pa&(dcSlots-1)]
	c.unlink(e)
	e.tag = pa
	e.ie = ie
	e.opLen = opLen
	e.n = cu.n
	e.items = cu.items
	e.bound = sbBind(e)
	e.btag, e.mtag = noBTag(pa), noBTag(pa)
	switch {
	case e.bound.kind == fbNone:
	case e.bound.mems == 0:
		e.btag = pa
	default:
		e.mtag = pa
	}
	e.len = cu.lastOff
	c.dc.mark(pa, n)
	c.dc.maxLen = max(c.dc.maxLen, n)
	c.link(e)
}

// entry returns the valid entry tagged pa, or nil.
func (d *dcache) entry(pa uint32) *dcEntry {
	if e := &d.entries[pa&(dcSlots-1)]; e.len != 0 && e.tag == pa {
		return e
	}
	return nil
}

// link links the just-installed entry e into the counting loop (see
// loops) it closes with the valid entry it would run after or branch
// to, if any: the head becomes loopHead, the back edge loopEdge (a
// one-instruction loop is loopHead alone), and neither keeps its btag.
// So a loop is linked whenever one of its entries is recorded while the
// other is valid, whichever came first or was evicted and recorded
// again.
func (c *CPU) link(e *dcEntry) {
	h, x := e, e
	switch e.bound.kind {
	case fbAdd:
		x = c.dc.entry(e.tag + uint32(e.bound.next))
	case fbSobgtr, fbSobgeq, fbBr:
		h = c.dc.entry(e.tag + e.bound.taken)
	default:
		return
	}
	if h == nil || x == nil || !loops(h, x) {
		return
	}
	h.bound.loop, h.btag = loopHead, noBTag(h.tag)
	if x != h {
		x.bound.loop, x.btag = loopEdge, noBTag(x.tag)
	}
}

// unlink ends the loop link of e, which is about to be dropped or
// evicted, if it has one: its partner, the back edge after a head or
// the head a back edge branches to, is an ordinary bound entry again
// and gets its btag back. No untagged entry outlives its link.
func (c *CPU) unlink(e *dcEntry) {
	if e.bound.loop == loopNone {
		return
	}
	off := e.bound.taken // a back edge's head; a one-instruction loop's own opcode
	if e.bound.kind == fbAdd {
		off = uint32(e.bound.next)
	}
	for _, x := range [2]*dcEntry{e, &c.dc.entries[(e.tag+off)&(dcSlots-1)]} {
		x.bound.loop, x.btag = loopNone, x.tag
	}
}

// dropDecode empties slot i, which holds an entry.
func (c *CPU) dropDecode(i uint32) {
	e := &c.dc.entries[i]
	c.unlink(e)
	e.len = 0
	e.btag, e.mtag = noBTag(i), noBTag(i)
	c.Stats.DecodeInvalidations++
}

// storeAbortsRecord keeps the instruction being recorded from being
// installed when it writes into its own page: the captured items may
// already be stale.
func (c *CPU) storeAbortsRecord(page uint32) {
	if cu := &c.cur; cu.mode == curRecord && page == cu.recPage {
		cu.aborted = true
	}
}

// invalidateStore drops the cached decodes whose recorded bytes
// overlap the n bytes written at pa, all on one page. Called on each
// store; the line mask keeps a write to lines with no cached code at
// one test.
func (c *CPU) invalidateStore(pa, n uint32) {
	page := pa / vax.PageSize
	c.storeAbortsRecord(page)
	off := pa & vax.PageMask
	if page >= uint32(len(c.dc.lines)) || c.dc.lines[page]&lineBits(off, off+n) == 0 {
		return
	}
	// A set bit means an entry was installed since the last flush, so
	// maxLen >= 1. Only an opcode in [pa-maxLen+1, pa+n) can reach the
	// write from this page; the window is under dcSlots long, so no
	// slot is probed twice.
	end := pa + n
	for a := pa - min(off, c.dc.maxLen-1); a < end; a++ {
		i := a & (dcSlots - 1)
		if e := &c.dc.entries[i]; e.len != 0 && e.tag == a && a+uint32(e.len) > pa {
			c.dropDecode(i)
		}
	}
	// The lines the write covers whole now hold no decoded bytes.
	c.dc.lines[page] &^= fullLines(off, off+n)
}

// InvalidateDecode drops the cached decoded instructions whose bytes
// overlap the physical range [pa, pa+n). It is the hook for writers
// that bypass the CPU's own store path: the VMM storing into a VM's
// physical memory and device DMA. Each page's part of the range drops
// exactly what a CPU store of those bytes would.
func (c *CPU) InvalidateDecode(pa, n uint32) {
	for n > 0 {
		k := min(n, vax.PageSize-pa&vax.PageMask)
		c.invalidateStore(pa, k)
		pa, n = pa+k, n-k
	}
}

// FlushDecodeCache drops every cached decode (snapshot restore, where
// all of memory may have changed underneath the mappings).
func (c *CPU) FlushDecodeCache() {
	for i := range c.dc.entries {
		if c.dc.entries[i].len != 0 {
			c.dropDecode(uint32(i))
		}
	}
	clear(c.dc.lines)
	c.dc.maxLen = 0
}
