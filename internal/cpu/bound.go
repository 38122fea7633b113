package cpu

import "repro/internal/vax"

// The pre-bound form of a decoded instruction. An entry whose operands
// are all registers and literals is compiled once, when the decode
// cache records it (sbBind), into a three-address form that execBound
// runs without the replay cursor or the generic handler. Such an
// instruction cannot fault, touch memory, halt, wait, or change the
// PSL's privileged fields, which is also what lets the run loop
// (exception.go) execute consecutive bound instructions back to back.

// Bound kinds: one per operation, whatever the operand count. Each
// mirrors its interpreter handler (exec.go, convert.go, dispatch.go)
// restricted to register and literal operands, the shapes that cannot
// fault, touch memory, halt, wait or change privileged PSL fields. A
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

// execBound runs one pre-bound instruction whose opcode is at base and
// returns the new PC, which it also stores (the run loop goes on from
// the returned copy without reloading it). Condition-code updates
// replicate setNZ/setNZVC and the handlers bit for bit; cycle charges
// match the interpreter (no memory operands, so never CostMemOperand).
// Only the rows of fbMov, fbCvt and fbMcom have byte or word
// destinations, so only they write through put; the other kinds store
// d whole. No operand is ever PC: register mode on PC is a reserved
// addressing mode, so its entries are never bound.
func (c *CPU) execBound(fb *sbBound, base uint32) uint32 {
	c.Cycles += uint64(fb.cost)
	pc := base + uint32(fb.next)
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
			pc = base + fb.taken
		}
	case fbAoblss, fbAobleq:
		r := b + 1
		c.R[fb.d.reg] = r
		c.setNZ(r, 4)
		if int32(r) < int32(a) || fb.kind == fbAobleq && r == a {
			pc = base + fb.taken
		}
	case fbBlbs, fbBlbc:
		if a&1 == 1 == (fb.kind == fbBlbs) {
			pc = base + fb.taken
		}
	case fbBr:
		pc = base + fb.taken
	case fbBcond:
		if condHolds(uint32(c.psl), fb.cond) {
			pc = base + fb.taken
		}
	case fbTst:
		c.setNZ(a, int(fb.a.size))
	case fbCmp:
		sa, sb := signExt(a, int(fb.a.size)), signExt(b, int(fb.a.size))
		c.setNZVC(sa < sb, sa == sb, false, a < b)
	case fbBit:
		c.setNZ(a&b, 4)
	}
	c.R[RegPC] = pc
	return pc
}
