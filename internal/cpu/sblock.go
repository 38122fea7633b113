package cpu

import (
	"repro/internal/mmu"
	"repro/internal/vax"
)

// The hot-trace superblock tier. The decoded-instruction cache (see
// dcache.go) removes the per-instruction parse; this tier removes the
// per-instruction dispatch around it. Once a cached instruction proves
// hot, the instructions executed after it — across fallthrough and
// taken edges alike — are chained into a superblock: a flat array of
// pre-bound steps, each carrying the virtual address it must execute
// at and a private copy of its decoded entry. Executing a superblock
// replays the steps back to back with no fetch, no decode-cache probe,
// no interrupt poll and no device tick between them; those costs are
// paid once per block instead of once per instruction.
//
// Correctness rests on three mechanisms:
//
//   - Entry guards. A block is entered only when its start PA and VA
//     both match and every code page it was recorded from still
//     translates (under the current mode) to the same physical page.
//     Translation is re-done fresh at every entry, so a block needs no
//     TLB-coherence work of its own: TBIA/TBIS between blocks simply
//     make the next entry revalidate, exactly like the single-page
//     decode entries.
//   - Per-step exits. Between steps the executor checks, in order: the
//     step error (faults leave the block and take the architectural
//     path through handleError, with the same register restore the
//     interpreter performs), halt and WAIT, invalidation of the block
//     itself (a store into its pages mid-block, including by its own
//     instructions), a TLB invalidate issued mid-block (entry
//     revalidation cannot catch a remap that happens inside the
//     block), a change of the PSL's privileged fields (mode, IPL, IS,
//     VM — anything that alters translation or interrupt
//     deliverability), and finally the edge check: the next step runs
//     only if PC actually arrived at its recorded address.
//   - Invalidation through the existing page hooks. Stores, DMA and
//     VMM writes funnel through invalidateDecodePA, snapshot restore
//     through FlushDecodeCache; both now drop superblocks alongside
//     decode entries, keyed by the same physical-page bitmap trick.
//
// Interrupts are polled at block boundaries only: a device interrupt
// (or a guest-raised software interrupt) arriving mid-block is
// delivered at most sbMaxSteps instructions late, the documented
// trade of this tier.
//
// The tier is strictly opt-in (EnableTranslation): a CPU that never
// opts in allocates nothing and pays one nil test per Step.

const (
	// sbSlots is the direct-mapped block cache size, indexed by the
	// low bits of the start instruction's physical address.
	sbSlots = 256
	// sbMaxSteps bounds a block's length. Steps may revisit the same
	// instruction (a two-instruction loop unrolls sixteen times), so
	// short hot loops amortize the block-entry costs across many
	// iterations.
	sbMaxSteps = 32
	// sbMinSteps is the shortest block worth installing; anything
	// shorter replays just as fast from the decode cache.
	sbMinSteps = 4
	// sbMaxPages bounds the distinct code-page translations one block
	// may depend on; a trace that wanders further ends the block.
	sbMaxPages = 4
	// sbDefaultHeat is how many decode-cache executions an instruction
	// accumulates before a build starts at it (see SetTraceThreshold).
	sbDefaultHeat = 64
)

// sbPSLGuard selects the PSL fields whose change ends a superblock:
// access modes, IPL, the interrupt-stack and first-part-done bits, and
// PSL<VM> — everything that affects translation or interrupt
// deliverability. Condition codes and trap enables change freely.
const sbPSLGuard = vax.PSLIPLMask | vax.PSLPrvMask | vax.PSLCurMask |
	vax.PSLIS | vax.PSLFPD | vax.PSLVM

// sbStep is one instruction of a superblock.
type sbStep struct {
	va  uint32  // virtual address this step must execute at
	ent dcEntry // private copy of the decoded entry, binding included (survives eviction)
}

// sbPage is one code-page translation a block depends on.
type sbPage struct {
	va uint32 // page base, virtual
	pa uint32 // page base, physical, as recorded at build time
}

// sblock is one superblock.
type sblock struct {
	valid   bool
	nSteps  uint8
	nPages  uint8
	startVA uint32
	startPA uint32
	pages   [sbMaxPages]sbPage
	steps   [sbMaxSteps]sbStep
}

// dependsOnPage reports whether the block recorded code from the given
// physical page.
func (b *sblock) dependsOnPage(page uint32) bool {
	for i := uint8(0); i < b.nPages; i++ {
		if b.pages[i].pa/vax.PageSize == page {
			return true
		}
	}
	return false
}

// addPage records a code-page dependency, deduplicating; false means
// the block is out of page slots and must end.
func (b *sblock) addPage(vaBase, paBase uint32) bool {
	for i := uint8(0); i < b.nPages; i++ {
		if b.pages[i].va == vaBase && b.pages[i].pa == paBase {
			return true
		}
	}
	if b.nPages >= sbMaxPages {
		return false
	}
	b.pages[b.nPages] = sbPage{va: vaBase, pa: paBase}
	b.nPages++
	return true
}

// sbCache is the superblock tier's state, allocated only when a CPU
// opts in via EnableTranslation (about 1.2 MB; a tier-off CPU carries
// a nil pointer).
type sbCache struct {
	blocks   []sblock
	pageBits []uint64 // physical pages holding at least one block's code
	pageLim  uint32

	threshold uint16 // heat needed to start a build

	building bool
	bld      *sblock // slot being filled in place (valid=false until done)
	tlbFlush bool    // a TBIA/TBIS happened; set mid-block forces an exit
}

func (sb *sbCache) markPage(page uint32) {
	if page < sb.pageLim {
		sb.pageBits[page>>6] |= 1 << (page & 63)
	}
}

func (sb *sbCache) pageMarked(page uint32) bool {
	return page < sb.pageLim && sb.pageBits[page>>6]&(1<<(page&63)) != 0
}

// EnableTranslation switches the hot-trace superblock tier on or off.
// Storage is allocated on the first enable, so a machine that never
// opts in pays nothing; disabling drops every block.
func (c *CPU) EnableTranslation(on bool) {
	if !on {
		c.sb = nil
		return
	}
	if c.sb == nil {
		pages := c.Mem.Pages()
		c.sb = &sbCache{
			blocks:    make([]sblock, sbSlots),
			pageBits:  make([]uint64, (pages+63)/64),
			pageLim:   pages,
			threshold: sbDefaultHeat,
		}
	}
}

// TranslationEnabled reports whether the superblock tier is on.
func (c *CPU) TranslationEnabled() bool { return c.sb != nil }

// SetTraceThreshold sets how many decode-cache executions make an
// instruction hot enough to head a superblock (tests and tuning; the
// default is sbDefaultHeat).
func (c *CPU) SetTraceThreshold(n int) {
	if c.sb != nil && n > 0 && n < 1<<16 {
		c.sb.threshold = uint16(n)
	}
}

// stepTranslated executes one Step's worth of work with the tier on:
// enter a superblock when one is valid at the PC, otherwise interpret
// one instruction (heating its decode entry and extending any build in
// progress). The caller has already handled halts, interrupts, WAIT
// and the trap-all check; it ticks the devices with whatever cycles
// this consumed.
func (c *CPU) stepTranslated() {
	sb := c.sb
	pa, paOK := c.MMU.TranslateFast(c.R[RegPC], mmu.Read, c.psl.Cur())
	if paOK && !sb.building {
		b := &sb.blocks[pa&(sbSlots-1)]
		if b.valid && b.startPA == pa && b.startVA == c.R[RegPC] && c.sbPagesValid(b) {
			c.execBlock(b)
			return
		}
		// No block here: heat the decoded entry under this PA and start
		// a build when it crosses the threshold (the build then feeds
		// off the interpretation below).
		if e := &c.dc.entries[pa&(dcSlots-1)]; e.valid && e.tag == pa {
			e.heat++
			if e.heat >= sb.threshold {
				e.heat = 0
				c.sbStartBuild(pa, c.R[RegPC])
			}
		}
	}
	err := c.execOneAt(pa, paOK)
	if sb.building {
		c.sbBuildAppend(err)
	}
	if err != nil {
		c.handleError(err, c.instStartPC)
	}
	c.Stats.Instructions++
}

// sbPagesValid re-translates every code page the block depends on and
// checks each still maps where the build recorded it.
func (c *CPU) sbPagesValid(b *sblock) bool {
	mode := c.psl.Cur()
	for i := uint8(0); i < b.nPages; i++ {
		pa, ok := c.MMU.TranslateFast(b.pages[i].va, mmu.Read, mode)
		if !ok || pa != b.pages[i].pa {
			return false
		}
	}
	return true
}

// execBlock replays a superblock step by step. Each step performs
// exactly what one interpreted instruction would — register snapshot,
// PC advance, cost charge, handler call through the replay cursor,
// fault handling — so a block is observationally an unrolled run of
// Steps with the interrupt poll and device tick hoisted to the
// boundary.
func (c *CPU) execBlock(b *sblock) {
	sb := c.sb
	sb.tlbFlush = false
	c.Stats.SBEnters++
	entryPSL := uint32(c.psl) & sbPSLGuard
	n := int(b.nSteps)
	var done uint64
	for i := 0; i < n; i++ {
		st := &b.steps[i]
		if c.R[RegPC] != st.va {
			// The previous step branched off the recorded edge.
			c.Stats.SBEarlyExits++
			break
		}
		e := &st.ent
		if e.bound.kind != fbNone {
			// Pre-bound step: register/literal operands only, so it
			// cannot fault, store, halt, wait or touch guarded PSL
			// fields — no snapshot, no exit checks.
			c.execBound(&e.bound, st.va)
			done++
			continue
		}
		c.regSnapshot = c.R
		c.instStartPC = st.va
		err := c.execReplay(e)
		done++
		if err != nil {
			c.handleError(err, st.va)
			c.Stats.SBEarlyExits++
			break
		}
		if c.Halted || c.waiting || !b.valid || sb.tlbFlush ||
			uint32(c.psl)&sbPSLGuard != entryPSL {
			if i+1 < n {
				c.Stats.SBEarlyExits++
			}
			break
		}
	}
	c.Stats.SBSteps += done
	c.Stats.Instructions += done
}

// sbStartBuild claims the block slot for the trace about to be
// recorded. The build fills the slot in place with valid still false,
// so a conflict eviction is implicit and an aborted build leaves a
// dead slot, never a wrong one.
func (c *CPU) sbStartBuild(pa, va uint32) {
	sb := c.sb
	b := &sb.blocks[pa&(sbSlots-1)]
	b.valid = false
	b.nSteps = 0
	b.nPages = 0
	b.startVA = va
	b.startPA = pa
	sb.building = true
	sb.bld = b
}

// sbBuildAppend extends the build with the instruction the interpreter
// just executed, or ends the build when the trace can no longer be
// extended (a fault, a halt or WAIT, an uncacheable or evicted decode,
// or page-slot exhaustion).
func (c *CPU) sbBuildAppend(err error) {
	sb := c.sb
	b := sb.bld
	if err != nil || c.Halted || c.waiting {
		c.sbFinishBuild()
		return
	}
	// Re-probe the decode entry for the executed instruction: the cold
	// path installed one as a side effect, so even a compulsory miss
	// extends the trace. A failed translation or a missing entry means
	// the instruction is uncacheable (or a store just invalidated it);
	// the block ends before it.
	pa, ok := c.MMU.TranslateFast(c.instStartPC, mmu.Read, c.psl.Cur())
	if !ok {
		c.sbFinishBuild()
		return
	}
	e := &c.dc.entries[pa&(dcSlots-1)]
	if !e.valid || e.tag != pa {
		c.sbFinishBuild()
		return
	}
	if !b.addPage(vax.PageBase(c.instStartPC), vax.PageBase(pa)) {
		c.sbFinishBuild()
		return
	}
	if e.straddle {
		// The entry's bytes continue onto the next page; the block then
		// depends on that translation too, and revalidates it at entry.
		if !b.addPage(vax.PageBase(c.instStartPC)+vax.PageSize, e.tag2) {
			c.sbFinishBuild()
			return
		}
	}
	b.steps[b.nSteps] = sbStep{va: c.instStartPC, ent: *e}
	b.nSteps++
	if b.nSteps >= sbMaxSteps {
		c.sbFinishBuild()
	}
}

// sbFinishBuild installs the recorded trace (if long enough to be
// worth entering) and leaves building mode.
func (c *CPU) sbFinishBuild() {
	sb := c.sb
	b := sb.bld
	sb.building = false
	sb.bld = nil
	if b == nil || b.nSteps < sbMinSteps {
		return
	}
	for i := uint8(0); i < b.nPages; i++ {
		sb.markPage(b.pages[i].pa / vax.PageSize)
	}
	b.valid = true
	c.Stats.SBBuilds++
	if c.OnTraceCompile != nil {
		c.OnTraceCompile(b.startVA, int(b.nSteps))
	}
}

// Pre-bound step kinds. Each mirrors its interpreter handler exactly
// (exec.go / dispatch.go), restricted to register and literal operands
// — the shapes that cannot fault, touch memory, or change guarded PSL
// fields. Everything else stays fbNone and takes the generic replay
// path through the handler.
const (
	fbNone   uint8 = iota
	fbMovl         // R[rb] = a; N,Z; V=0, C kept
	fbClrl         // R[rb] = 0
	fbTstl         // CC from a
	fbAddl2        // R[rb] += a
	fbSubl2        // R[rb] -= a
	fbBisl2        // R[rb] |= a
	fbBicl2        // R[rb] &^= a
	fbXorl2        // R[rb] ^= a
	fbMull2        // R[rb] *= a (signed, V on 32-bit overflow)
	fbIncl         // R[rb]++
	fbDecl         // R[rb]--
	fbCmpl         // CC from a vs R[rb]
	fbBr           // PC = taken (BRB/BRW)
	fbBcond        // PC = taken when the ra-coded predicate holds
	fbSobgtr       // R[ra]--; PC = taken while > 0
	fbSobgeq       // R[ra]--; PC = taken while >= 0
)

// Condition-branch predicate codes (sbBound.ra for fbBcond), in the
// order of dispatch.go's regBranch table.
const (
	fbcNEQ uint8 = iota
	fbcEQL
	fbcGTR
	fbcLEQ
	fbcGEQ
	fbcLSS
	fbcGTRU
	fbcLEQU
	fbcVC
	fbcVS
	fbcCC
	fbcCS
)

// sbBound is a fully pre-bound instruction: operation kind, operand a
// (the literal imm when aLit, else R[ra]), register operand b, and the
// successor PCs as offsets from the opcode (one physical page may be
// mapped at several VAs). cost is the instruction's up-front cycle
// charge (register shapes never pay CostMemOperand).
type sbBound struct {
	kind  uint8
	aLit  bool
	ra    uint8
	rb    uint8
	next  uint8 // fallthrough offset (the instruction's length)
	cost  uint16
	imm   uint32
	taken uint32 // branch target offset (branch kinds; wraps backwards)
}

// sbBind compiles one decoded entry into its pre-bound form, or fbNone
// when any operand is outside the register/literal subset. The entry's
// recorded items must cover the whole instruction (partial entries
// replay generically).
func sbBind(e *dcEntry) sbBound {
	// Specifier accessors over the recorded items; every bound shape
	// consumes all items, so the last one's end offset is the
	// instruction length.
	spec := func(i uint8) (dspec, bool) {
		if i < e.n && e.items[i].kind == diSpec {
			t := e.items[i].spec
			if t.xreg == noIndex && (t.kind == evLiteral || t.kind == evRegister) {
				return t, true
			}
		}
		return dspec{}, false
	}
	raw := func(i uint8, kind uint8) (uint32, uint8, bool) {
		if i < e.n && e.items[i].kind == kind {
			return e.items[i].val, e.items[i].endOff, true
		}
		return 0, 0, false
	}
	// bindA fills operand a from a literal-or-register template.
	bindA := func(fb *sbBound, t dspec) {
		if t.kind == evLiteral {
			fb.aLit = true
			fb.imm = t.imm
		} else {
			fb.ra = t.reg
		}
	}
	fb := sbBound{cost: e.ie.cost}
	switch e.ie.op {
	case vax.OpMOVL, vax.OpTSTL, vax.OpCMPL,
		vax.OpADDL2, vax.OpSUBL2, vax.OpBISL2, vax.OpBICL2,
		vax.OpXORL2, vax.OpMULL2:
		a, ok := spec(0)
		if !ok || a.size != 4 {
			return sbBound{}
		}
		bindA(&fb, a)
		if e.ie.op == vax.OpTSTL {
			if e.n != 1 {
				return sbBound{}
			}
			fb.kind = fbTstl
			fb.next = a.endOff
			return fb
		}
		b, ok := spec(1)
		if !ok || b.kind != evRegister || b.size != 4 || e.n != 2 {
			return sbBound{}
		}
		fb.rb = b.reg
		fb.next = b.endOff
		switch e.ie.op {
		case vax.OpMOVL:
			fb.kind = fbMovl
		case vax.OpCMPL:
			fb.kind = fbCmpl
		case vax.OpADDL2:
			fb.kind = fbAddl2
		case vax.OpSUBL2:
			fb.kind = fbSubl2
		case vax.OpBISL2:
			fb.kind = fbBisl2
		case vax.OpBICL2:
			fb.kind = fbBicl2
		case vax.OpXORL2:
			fb.kind = fbXorl2
		case vax.OpMULL2:
			fb.kind = fbMull2
		}
		return fb
	case vax.OpCLRL, vax.OpINCL, vax.OpDECL:
		t, ok := spec(0)
		if !ok || t.kind != evRegister || t.size != 4 || e.n != 1 {
			return sbBound{}
		}
		fb.rb = t.reg
		fb.next = t.endOff
		switch e.ie.op {
		case vax.OpCLRL:
			fb.kind = fbClrl
		case vax.OpINCL:
			fb.kind = fbIncl
		default:
			fb.kind = fbDecl
		}
		return fb
	case vax.OpSOBGTR, vax.OpSOBGEQ:
		t, ok := spec(0)
		if !ok || t.kind != evRegister || t.size != 4 {
			return sbBound{}
		}
		d, off, ok := raw(1, diByte)
		if !ok || e.n != 2 {
			return sbBound{}
		}
		fb.ra = t.reg
		fb.kind = fbSobgeq
		if e.ie.op == vax.OpSOBGTR {
			fb.kind = fbSobgtr
		}
		fb.next = off
		fb.taken = uint32(fb.next) + uint32(int32(int8(d)))
		return fb
	case vax.OpBRB:
		d, off, ok := raw(0, diByte)
		if !ok || e.n != 1 {
			return sbBound{}
		}
		fb.kind = fbBr
		fb.next = off
		fb.taken = uint32(fb.next) + uint32(int32(int8(d)))
		return fb
	case vax.OpBRW:
		d, off, ok := raw(0, diWord)
		if !ok || e.n != 1 {
			return sbBound{}
		}
		fb.kind = fbBr
		fb.next = off
		fb.taken = uint32(fb.next) + uint32(int32(int16(d)))
		return fb
	case vax.OpBNEQ, vax.OpBEQL, vax.OpBGTR, vax.OpBLEQ,
		vax.OpBGEQ, vax.OpBLSS, vax.OpBGTRU, vax.OpBLEQU,
		vax.OpBVC, vax.OpBVS, vax.OpBCC, vax.OpBCS:
		d, off, ok := raw(0, diByte)
		if !ok || e.n != 1 {
			return sbBound{}
		}
		fb.kind = fbBcond
		switch e.ie.op {
		case vax.OpBNEQ:
			fb.ra = fbcNEQ
		case vax.OpBEQL:
			fb.ra = fbcEQL
		case vax.OpBGTR:
			fb.ra = fbcGTR
		case vax.OpBLEQ:
			fb.ra = fbcLEQ
		case vax.OpBGEQ:
			fb.ra = fbcGEQ
		case vax.OpBLSS:
			fb.ra = fbcLSS
		case vax.OpBGTRU:
			fb.ra = fbcGTRU
		case vax.OpBLEQU:
			fb.ra = fbcLEQU
		case vax.OpBVC:
			fb.ra = fbcVC
		case vax.OpBVS:
			fb.ra = fbcVS
		case vax.OpBCC:
			fb.ra = fbcCC
		default:
			fb.ra = fbcCS
		}
		fb.next = off
		fb.taken = uint32(fb.next) + uint32(int32(int8(d)))
		return fb
	}
	return sbBound{}
}

// execBound runs one pre-bound instruction whose opcode is at base.
// Condition-code updates replicate setNZ/setNZVC and the handlers' f
// callbacks bit for bit; cycle charges match the interpreter (no memory
// operands, so never CostMemOperand).
func (c *CPU) execBound(fb *sbBound, base uint32) {
	c.Cycles += uint64(fb.cost)
	c.R[RegPC] = base + uint32(fb.next)
	a := fb.imm
	if !fb.aLit {
		a = c.R[fb.ra]
	}
	switch fb.kind {
	case fbMovl:
		c.R[fb.rb] = a
		c.setNZ(a, 4)
	case fbClrl:
		c.R[fb.rb] = 0
		c.setNZ(0, 4)
	case fbTstl:
		c.setNZ(a, 4)
	case fbAddl2:
		b := c.R[fb.rb]
		r := b + a
		c.R[fb.rb] = r
		c.setNZVC(int32(r) < 0, r == 0, (a^r)&(b^r)&0x80000000 != 0, r < a)
	case fbSubl2:
		b := c.R[fb.rb]
		r := b - a
		c.R[fb.rb] = r
		c.setNZVC(int32(r) < 0, r == 0, (a^b)&(b^r)&0x80000000 != 0, b < a)
	case fbBisl2:
		r := c.R[fb.rb] | a
		c.R[fb.rb] = r
		c.setNZVC(int32(r) < 0, r == 0, false, false)
	case fbBicl2:
		r := c.R[fb.rb] &^ a
		c.R[fb.rb] = r
		c.setNZVC(int32(r) < 0, r == 0, false, false)
	case fbXorl2:
		r := c.R[fb.rb] ^ a
		c.R[fb.rb] = r
		c.setNZVC(int32(r) < 0, r == 0, false, false)
	case fbMull2:
		full := int64(int32(a)) * int64(int32(c.R[fb.rb]))
		r := uint32(full)
		c.R[fb.rb] = r
		c.setNZVC(int32(r) < 0, r == 0, full != int64(int32(r)), false)
	case fbIncl:
		v := c.R[fb.rb]
		r := v + 1
		c.R[fb.rb] = r
		c.setNZVC(int32(r) < 0, r == 0, v == 0x7FFFFFFF, v == 0xFFFFFFFF)
	case fbDecl:
		v := c.R[fb.rb]
		r := v - 1
		c.R[fb.rb] = r
		c.setNZVC(int32(r) < 0, r == 0, v == 0x80000000, v == 0)
	case fbCmpl:
		b := c.R[fb.rb]
		c.setNZVC(int32(a) < int32(b), a == b, false, a < b)
	case fbBr:
		c.R[RegPC] = base + fb.taken
	case fbBcond:
		p := uint32(c.psl)
		var cond bool
		switch fb.ra {
		case fbcNEQ:
			cond = p&vax.PSLZ == 0
		case fbcEQL:
			cond = p&vax.PSLZ != 0
		case fbcGTR:
			cond = p&(vax.PSLZ|vax.PSLN) == 0
		case fbcLEQ:
			cond = p&(vax.PSLZ|vax.PSLN) != 0
		case fbcGEQ:
			cond = p&vax.PSLN == 0
		case fbcLSS:
			cond = p&vax.PSLN != 0
		case fbcGTRU:
			cond = p&(vax.PSLC|vax.PSLZ) == 0
		case fbcLEQU:
			cond = p&(vax.PSLC|vax.PSLZ) != 0
		case fbcVC:
			cond = p&vax.PSLV == 0
		case fbcVS:
			cond = p&vax.PSLV != 0
		case fbcCC:
			cond = p&vax.PSLC == 0
		default:
			cond = p&vax.PSLC != 0
		}
		if cond {
			c.R[RegPC] = base + fb.taken
		}
	case fbSobgtr, fbSobgeq:
		r := c.R[fb.ra] - 1
		c.R[fb.ra] = r
		c.setNZ(r, 4)
		if fb.kind == fbSobgtr && int32(r) > 0 ||
			fb.kind == fbSobgeq && int32(r) >= 0 {
			c.R[RegPC] = base + fb.taken
		}
	}
}

// sbInvalidatePage drops every superblock depending on the given
// physical page, and aborts a build recording from it. Called from
// invalidateDecodePA under the page bitmap, so the common store costs
// one extra bit test.
func (c *CPU) sbInvalidatePage(page uint32) {
	sb := c.sb
	if sb.building && sb.bld.dependsOnPage(page) {
		// Steps already recorded may be stale; drop the whole build.
		sb.building = false
		sb.bld = nil
	}
	if !sb.pageMarked(page) {
		return
	}
	for i := range sb.blocks {
		b := &sb.blocks[i]
		if b.valid && b.dependsOnPage(page) {
			b.valid = false
			c.Stats.SBInvalidations++
		}
	}
	if page < sb.pageLim {
		sb.pageBits[page>>6] &^= 1 << (page & 63)
	}
}

// sbFlush drops every superblock (snapshot restore, shard reset).
func (c *CPU) sbFlush() {
	sb := c.sb
	if sb == nil {
		return
	}
	for i := range sb.blocks {
		if sb.blocks[i].valid {
			sb.blocks[i].valid = false
			c.Stats.SBInvalidations++
		}
	}
	for i := range sb.pageBits {
		sb.pageBits[i] = 0
	}
	sb.building = false
	sb.bld = nil
}
