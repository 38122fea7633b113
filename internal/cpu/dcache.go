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
// form without the cursor or the generic handler.
//
// Keying by physical address makes invalidation precise: a write to a
// physical page drops the decodes from that page no matter which
// virtual mapping performed the write (guest stores, VMM stores into VM
// memory, DMA). A page-granular bitmap in front of the entry scan keeps
// the common store (to a page with no cached decodes) at one bit test.
//
// Coherence rules (see DESIGN.md):
//
//   - Guest stores through the CPU's own path invalidate inline
//     (physStoreByte/physStoreLong).
//   - Writers that bypass the CPU (VMM writes into VM physical memory,
//     device DMA) call InvalidateDecode; snapshot restore calls
//     FlushDecodeCache.
//   - Entries whose bytes span two pages additionally depend on the
//     translation of the second page, so TBIA/TBIS flush them (via the
//     MMU callbacks) and every replay revalidates the second page's
//     translation.
//   - A plain entry needs no TLB-coherence work: its tag is verified
//     against a fresh translation of the PC on every execution, so a
//     mapping change redirects or misses exactly like the TLB does.

const (
	dcSlots    = 1024 // direct-mapped entries, indexed by PA low bits
	dcItemsMax = 6    // recorded decode items per instruction
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
	tag      uint32 // physical address of the opcode byte
	tag2     uint32 // physical address of the second page's first byte (straddle)
	ie       *instrEntry
	valid    bool
	straddle bool    // recorded bytes span a page boundary
	opLen    uint8   // opcode length (2 for 0xFD-prefixed)
	n        uint8   // recorded items
	heat     uint16  // replays seen by the superblock tier (sblock.go)
	bound    sbBound // pre-bound form (fbNone: replay through the handler)
	items    [dcItemsMax]dspec
}

type dcache struct {
	entries   []dcEntry
	pageBits  []uint64 // physical pages holding at least one cached decode
	pageLim   uint32   // number of physical pages covered by pageBits
	straddles int      // live straddle entries, guarding flushStraddleDecodes
}

func (d *dcache) markPage(page uint32) {
	if page < d.pageLim {
		d.pageBits[page>>6] |= 1 << (page & 63)
	}
}

func (d *dcache) pageMarked(page uint32) bool {
	return page < d.pageLim && d.pageBits[page>>6]&(1<<(page&63)) != 0
}

func (d *dcache) clearPage(page uint32) {
	if page < d.pageLim {
		d.pageBits[page>>6] &^= 1 << (page & 63)
	}
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
	c.dc.entries = make([]dcEntry, dcSlots)
	c.dc.pageBits = make([]uint64, (pages+63)/64)
	c.dc.pageLim = pages
}

// execOne fetches, decodes and executes a single instruction, replaying
// from the decoded-instruction cache when the physical PC hits a valid
// entry.
func (c *CPU) execOne() error {
	pa, paOK := c.MMU.TranslateFast(c.R[RegPC], mmu.Read, c.psl.Cur())
	return c.execOneAt(pa, paOK)
}

// execOneAt is execOne with the PC's translation already done (the
// superblock tier translates once for its block probe and passes the
// result through here on a miss).
func (c *CPU) execOneAt(pa uint32, paOK bool) error {
	if paOK {
		e := &c.dc.entries[pa&(dcSlots-1)]
		if e.valid && e.tag == pa &&
			(!e.straddle || c.straddleValid(e)) {
			c.Stats.DecodeHits++
			return c.execReplay(e)
		}
	}
	return c.execCold(pa, paOK)
}

// straddleValid re-translates the second page of a page-straddling
// entry and checks it still maps to the recorded physical page.
func (c *CPU) straddleValid(e *dcEntry) bool {
	va2 := vax.PageBase(c.R[RegPC]) + vax.PageSize
	pa2, ok := c.MMU.TranslateFast(va2, mmu.Read, c.psl.Cur())
	return ok && pa2 == e.tag2
}

// execReplay runs a cached decoded instruction whose opcode is at
// instStartPC. A pre-bound entry runs its bound form; any other replays
// through its handler: PC skips the opcode byte(s), the precharged cost
// matches the cold path, and the handler consumes the recorded items
// through the cursor.
func (c *CPU) execReplay(e *dcEntry) error {
	if e.bound.kind != fbNone {
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
		// The PC's page was not in the TLB when execOne looked; the
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
		c.finishRecord(pa, va, opLen, ie)
	}
	return err
}

// cacheablePA reports whether an instruction whose opcode lives at pa
// may be cached: inside physical memory (the bitmap's domain) and not
// in a device window, whose reads have side effects.
func (c *CPU) cacheablePA(pa uint32) bool {
	if pa/vax.PageSize >= c.dc.pageLim {
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
// partial entry is merely less effective, never wrong.
func (c *CPU) finishRecord(pa, va uint32, opLen uint8, ie *instrEntry) {
	cu := &c.cur
	if cu.overflow || cu.aborted {
		return
	}
	straddle := (va&vax.PageMask)+uint32(cu.lastOff) > vax.PageSize
	var tag2 uint32
	if straddle {
		va2 := vax.PageBase(va) + vax.PageSize
		pa2, ok := c.MMU.TranslateFast(va2, mmu.Read, c.psl.Cur())
		if !ok || pa2/vax.PageSize >= c.dc.pageLim {
			return
		}
		tag2 = pa2
		c.dc.markPage(pa2 / vax.PageSize)
	}
	e := &c.dc.entries[pa&(dcSlots-1)]
	if e.valid && e.straddle {
		c.dc.straddles--
	}
	if straddle {
		c.dc.straddles++
	}
	e.tag = pa
	e.tag2 = tag2
	e.ie = ie
	e.straddle = straddle
	e.opLen = opLen
	e.n = cu.n
	e.heat = 0
	e.items = cu.items
	e.bound = sbBind(e)
	e.valid = true
	c.dc.markPage(pa / vax.PageSize)
}

// invalidateDecodePA drops every cached decode whose bytes may live in
// the physical page containing pa. Called on each store; the bitmap
// keeps the no-cached-code case at one bit test.
func (c *CPU) invalidateDecodePA(pa uint32) {
	page := pa / vax.PageSize
	if cu := &c.cur; cu.mode == curRecord {
		// The executing instruction stored into its own bytes (or past
		// its page while straddling): the captured items may already be
		// stale, so do not install them.
		if page == cu.recPage ||
			(c.instStartPC&vax.PageMask)+uint32(cu.lastOff) > vax.PageSize {
			cu.aborted = true
		}
	}
	if c.sb != nil {
		c.sbInvalidatePage(page)
	}
	if !c.dc.pageMarked(page) {
		return
	}
	for i := range c.dc.entries {
		e := &c.dc.entries[i]
		if !e.valid {
			continue
		}
		if e.tag/vax.PageSize == page || (e.straddle && e.tag2/vax.PageSize == page) {
			e.valid = false
			if e.straddle {
				c.dc.straddles--
			}
			c.Stats.DecodeInvalidations++
		}
	}
	c.dc.clearPage(page)
}

// InvalidateDecode drops cached decoded instructions overlapping the
// physical range [pa, pa+n). It is the hook for writers that bypass the
// CPU's own store path: the VMM storing into a VM's physical memory and
// device DMA.
func (c *CPU) InvalidateDecode(pa, n uint32) {
	if n == 0 {
		return
	}
	first := pa / vax.PageSize
	last := (pa + n - 1) / vax.PageSize
	for p := first; p <= last; p++ {
		c.invalidateDecodePA(p * vax.PageSize)
	}
}

// FlushDecodeCache drops every cached decode (snapshot restore, where
// all of memory may have changed underneath the mappings).
func (c *CPU) FlushDecodeCache() {
	for i := range c.dc.entries {
		if c.dc.entries[i].valid {
			c.dc.entries[i].valid = false
			c.Stats.DecodeInvalidations++
		}
	}
	for i := range c.dc.pageBits {
		c.dc.pageBits[i] = 0
	}
	c.dc.straddles = 0
	c.sbFlush()
}

// flushStraddleDecodes drops the entries that depend on two
// translations. Wired to the MMU's TBIA/TBIS callbacks: a single-page
// entry revalidates its translation on every execution, but a
// straddling entry's second page was translated at record time, so a
// TLB invalidate must drop it.
func (c *CPU) flushStraddleDecodes() {
	if c.sb != nil {
		// Superblocks revalidate their code-page translations at entry,
		// so a TLB invalidate between blocks costs nothing; one issued
		// mid-block must force an exit before the next step, because the
		// entry check has already passed.
		c.sb.tlbFlush = true
	}
	if c.dc.straddles == 0 {
		return
	}
	for i := range c.dc.entries {
		e := &c.dc.entries[i]
		if e.valid && e.straddle {
			e.valid = false
			c.Stats.DecodeInvalidations++
		}
	}
	c.dc.straddles = 0
}
