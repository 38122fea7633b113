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

// Bound kinds: one per operation, whatever the operand count. Each
// mirrors its interpreter handler (exec.go, convert.go, dispatch.go)
// restricted to register and literal operands, the shapes that cannot
// fault, touch memory, halt, wait or change guarded PSL fields. A
// two-operand ALU form binds as its three-operand kind with b = d, and
// the one-operand forms read and write the same register (CLRx moves
// an implicit #0 into it; INCL and DECL add or subtract an implicit
// #1). DIVL and every memory or index shape stay fbNone and replay
// through the handler.
//
// The order matters to sbBind: the kinds up to fbAobleq write d, and
// the kinds from fbSobgtr through fbBcond end with a branch
// displacement.
const (
	fbNone   uint8 = iota
	fbMov          // d = a; N,Z at d's size; V=0, C kept (MOVx, MOVZxL, CLRx)
	fbCvt          // d = a sign-extended or truncated; V on truncation (CVTxy)
	fbMneg         // d = -a
	fbMcom         // d = ^a
	fbAdd          // d = b + a (ADDL2/3, INCL)
	fbSub          // d = b - a (SUBL2/3, DECL)
	fbBis          // d = b | a
	fbBic          // d = b &^ a
	fbXor          // d = b ^ a
	fbMul          // d = b * a (signed, V on 32-bit overflow)
	fbAsh          // d = b shifted arithmetically by the signed byte a
	fbSobgtr       // d = b - 1; branch while > 0
	fbSobgeq       // d = b - 1; branch while >= 0
	fbAoblss       // d = b + 1; branch while < a
	fbAobleq       // d = b + 1; branch while <= a
	fbBlbs         // branch when a's low bit is set
	fbBlbc         // branch when a's low bit is clear
	fbBr           // branch always (BRB/BRW)
	fbBcond        // branch when the cond predicate holds
	fbTst          // CC from a
	fbCmp          // CC from a vs b
	fbBit          // CC from a & b
)

// Condition-branch predicate codes (sbBound.cond and the dispatch rows
// of the conditional branches).
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

// condHolds evaluates a branch predicate against the PSL's condition
// codes; the generic and the bound conditional branches share it.
func condHolds(p uint32, cond uint8) bool {
	switch cond {
	case fbcNEQ:
		return p&vax.PSLZ == 0
	case fbcEQL:
		return p&vax.PSLZ != 0
	case fbcGTR:
		return p&(vax.PSLZ|vax.PSLN) == 0
	case fbcLEQ:
		return p&(vax.PSLZ|vax.PSLN) != 0
	case fbcGEQ:
		return p&vax.PSLN == 0
	case fbcLSS:
		return p&vax.PSLN != 0
	case fbcGTRU:
		return p&(vax.PSLC|vax.PSLZ) == 0
	case fbcLEQU:
		return p&(vax.PSLC|vax.PSLZ) != 0
	case fbcVC:
		return p&vax.PSLV == 0
	case fbcVS:
		return p&vax.PSLV != 0
	case fbcCC:
		return p&vax.PSLC == 0
	default:
		return p&vax.PSLC != 0
	}
}

// sbOpnd is one bound operand: a literal or a register, accessed at
// size bytes. Reading it is R[reg]&mask | imm with no branch: a literal
// has a zero mask (imm holds the value), a register a zero imm.
type sbOpnd struct {
	reg  uint8
	size uint8
	mask uint32
	imm  uint32
}

// get reads a source operand.
func (c *CPU) get(o *sbOpnd) uint32 { return c.R[o.reg]&o.mask | o.imm }

// put stores r to a register operand; byte and word writes keep the
// register's high bits, as writeOp does.
func (c *CPU) put(o *sbOpnd, r uint32) { c.R[o.reg] = c.R[o.reg]&^o.mask | r&o.mask }

// sbBound is a fully pre-bound instruction in three-address form:
// sources a and b, destination register d, and the successor PCs as
// offsets from the opcode (one physical page may be mapped at several
// VAs). cost is the instruction's up-front cycle charge (register
// shapes never pay CostMemOperand).
type sbBound struct {
	kind  uint8
	cond  uint8 // fbBcond predicate
	next  uint8 // fallthrough offset (the instruction's length)
	cost  uint16
	a, b  sbOpnd
	d     sbOpnd
	taken uint32 // branch target offset (branch kinds; wraps backwards)
}

// sizeMask is the register mask of an access size.
func sizeMask(size uint8) uint32 {
	switch size {
	case 1:
		return 0xFF
	case 2:
		return 0xFFFF
	}
	return 0xFFFFFFFF
}

// sbBind compiles one decoded entry into its three-address form, or
// fbNone when the row is never bound or any operand is outside the
// register/literal subset. The entry's recorded items must cover the
// whole instruction (partial entries replay generically).
func sbBind(e *dcEntry) sbBound {
	kind := e.ie.bind
	if kind == fbNone {
		return sbBound{}
	}
	fb := sbBound{kind: kind, cond: e.ie.cond, cost: e.ie.cost}
	n := e.ie.nOps
	items := n
	if kind >= fbSobgtr && kind <= fbBcond {
		items++ // the branch displacement
	}
	if e.n != items {
		return sbBound{}
	}
	var ops [3]sbOpnd
	for i := uint8(0); i < n; i++ {
		t := &e.items[i]
		if t.xreg != noIndex {
			return sbBound{}
		}
		switch t.kind {
		case evLiteral:
			ops[i] = sbOpnd{size: t.size, imm: t.imm}
		case evRegister:
			ops[i] = sbOpnd{reg: t.reg, size: t.size, mask: sizeMask(t.size)}
		default:
			return sbBound{}
		}
	}
	fb.next = e.items[items-1].endOff
	if items > n {
		switch it := &e.items[n]; it.kind {
		case diByte:
			fb.taken = uint32(fb.next) + uint32(int32(int8(it.imm)))
		case diWord:
			fb.taken = uint32(fb.next) + uint32(int32(int16(it.imm)))
		default:
			return sbBound{}
		}
	}
	if kind > fbAobleq {
		// Tests and branches: every specifier is a source.
		fb.a, fb.b = ops[0], ops[1]
		return fb
	}
	// The last specifier is the destination; a literal (zero mask)
	// there is a reserved-operand fault, left to the handler.
	srcs := n - 1
	fb.d = ops[srcs]
	if fb.d.mask == 0 {
		return sbBound{}
	}
	switch srcs {
	case 0: // CLRx, INCL, DECL, SOBxxx: the operand is also source b
		fb.b = fb.d
		fb.a = sbOpnd{size: fb.d.size}
		if kind != fbMov {
			fb.a.imm = 1
		}
	case 1: // a two-operand form: b = d
		fb.a, fb.b = ops[0], fb.d
	default:
		fb.a, fb.b = ops[0], ops[1]
	}
	return fb
}

// execBound runs one pre-bound instruction whose opcode is at base.
// Condition-code updates replicate setNZ/setNZVC and the handlers bit
// for bit; cycle charges match the interpreter (no memory operands, so
// never CostMemOperand). Only the rows of fbMov, fbCvt and fbMcom have
// byte or word destinations, so only they write through put; the
// other kinds store d whole.
func (c *CPU) execBound(fb *sbBound, base uint32) {
	c.Cycles += uint64(fb.cost)
	c.R[RegPC] = base + uint32(fb.next)
	a, b := c.get(&fb.a), c.get(&fb.b)
	switch fb.kind {
	case fbMov:
		c.put(&fb.d, a)
		c.setNZ(a, int(fb.d.size))
	case fbCvt:
		r, ovf := cvt(a, int(fb.a.size), int(fb.d.size))
		c.put(&fb.d, r)
		s := signExt(r, int(fb.d.size))
		c.setNZVC(s < 0, s == 0, ovf, false)
	case fbMneg:
		r := uint32(-int32(a))
		c.R[fb.d.reg] = r
		c.setNZVC(int32(r) < 0, r == 0, a == 0x80000000, a != 0)
	case fbMcom:
		r := ^a & fb.d.mask
		c.put(&fb.d, r)
		c.setNZ(r, int(fb.d.size))
	case fbAdd:
		r := b + a
		c.R[fb.d.reg] = r
		c.setNZVC(int32(r) < 0, r == 0, (a^r)&(b^r)&0x80000000 != 0, r < a)
	case fbSub:
		r := b - a
		c.R[fb.d.reg] = r
		c.setNZVC(int32(r) < 0, r == 0, (a^b)&(b^r)&0x80000000 != 0, b < a)
	case fbBis:
		r := b | a
		c.R[fb.d.reg] = r
		c.setNZVC(int32(r) < 0, r == 0, false, false)
	case fbBic:
		r := b &^ a
		c.R[fb.d.reg] = r
		c.setNZVC(int32(r) < 0, r == 0, false, false)
	case fbXor:
		r := b ^ a
		c.R[fb.d.reg] = r
		c.setNZVC(int32(r) < 0, r == 0, false, false)
	case fbMul:
		full := int64(int32(a)) * int64(int32(b))
		r := uint32(full)
		c.R[fb.d.reg] = r
		c.setNZVC(int32(r) < 0, r == 0, full != int64(int32(r)), false)
	case fbAsh:
		r, ovf := ashl(a, b)
		c.R[fb.d.reg] = r
		c.setNZVC(int32(r) < 0, r == 0, ovf, false)
	case fbSobgtr, fbSobgeq:
		r := b - 1
		c.R[fb.d.reg] = r
		c.setNZ(r, 4)
		if int32(r) > 0 || fb.kind == fbSobgeq && r == 0 {
			c.R[RegPC] = base + fb.taken
		}
	case fbAoblss, fbAobleq:
		r := b + 1
		c.R[fb.d.reg] = r
		c.setNZ(r, 4)
		if int32(r) < int32(a) || fb.kind == fbAobleq && r == a {
			c.R[RegPC] = base + fb.taken
		}
	case fbBlbs, fbBlbc:
		if a&1 == 1 == (fb.kind == fbBlbs) {
			c.R[RegPC] = base + fb.taken
		}
	case fbBr:
		c.R[RegPC] = base + fb.taken
	case fbBcond:
		if condHolds(uint32(c.psl), fb.cond) {
			c.R[RegPC] = base + fb.taken
		}
	case fbTst:
		c.setNZ(a, int(fb.a.size))
	case fbCmp:
		sa, sb := signExt(a, int(fb.a.size)), signExt(b, int(fb.a.size))
		c.setNZVC(sa < sb, sa == sb, false, a < b)
	case fbBit:
		c.setNZ(a&b, 4)
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
