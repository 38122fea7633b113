package cpu

import (
	"encoding/binary"

	"repro/internal/mmu"
	"repro/internal/vax"
)

// The pre-bound form of a decoded instruction. An entry whose operands
// are all registers and literals is compiled once, when the decode
// cache records it (sbBind), into a three-address form that execBound
// runs without the replay cursor or the generic handler. Such an
// instruction cannot fault, touch memory, halt, wait, or change the
// PSL's privileged fields, which is also what lets the run loop
// (exception.go) execute consecutive bound instructions back to back.
//
// The MOV family (MOVx, MOVZxL, CLRx) also binds with memory operands
// in register-deferred, autoincrement and absolute modes; execMem runs
// those. A bound memory move touches only plain physical memory,
// through translations the TLB already grants: it computes its
// addresses, probes each one without counting (a destination with write
// intent), and then either commits the whole instruction or changes
// nothing. It changes nothing on a TLB miss or anything else Lookup
// refuses (a fault, PTE<M> clear), a page straddle, a device window or
// nonexistent memory, and the instruction then runs its generic handler
// from the same state, which takes the fault, the M-bit update or the
// device access. So a committed bound memory move, too, cannot fault,
// touch a device, or change the TLB, the mode or pending interrupts.
//
// A bound SOBGTR or SOBGEQ whose taken target is its own opcode is a
// one-instruction loop, the "SOBGTR Rn, ." delay idiom. Every iteration
// after the first has the same PC, translation and cost, and its
// outcome depends only on the counter it moves, so execLoop applies the
// n iterations a step may take at once: the loop runs in one step to
// its exit or to the next device deadline.

// Bound kinds: one per operation, whatever the operand count. Each
// mirrors its interpreter handler (exec.go, convert.go, dispatch.go)
// restricted to register and literal operands, the shapes that cannot
// fault, touch memory, halt, wait or change privileged PSL fields. A
// two-operand ALU form binds as its three-operand kind with b = d, and
// the one-operand forms read and write the same register (CLRx moves
// an implicit #0 into it; INCL and DECL add or subtract an implicit
// #1). DIVL, every index, displacement, autodecrement or deferred
// shape, and every memory operand outside fbMov stay fbNone and replay
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

// Bound operand modes: a value (register or literal) or one of the
// memory modes fbMov binds.
const (
	sbVal     uint8 = iota // R[reg]&mask | imm
	sbRegDef               // memory at R[reg]
	sbAutoInc              // memory at R[reg], then R[reg] += size
	sbAbs                  // memory at imm
)

// sbOpnd is one bound operand, accessed at size bytes. Reading a value
// operand is R[reg]&mask | imm with no branch: a literal has a zero
// mask (imm holds the value), a register a zero imm. A memory operand
// carries its size's mask too, so a zero mask always means a literal.
type sbOpnd struct {
	reg  uint8
	size uint8
	mode uint8
	mask uint32
	imm  uint32
}

// get reads a source operand.
func (c *CPU) get(o *sbOpnd) uint32 { return c.R[o.reg]&o.mask | o.imm }

// put stores r to a register operand; byte and word writes keep the
// register's high bits, as writeOp does.
func (c *CPU) put(o *sbOpnd, r uint32) { c.R[o.reg] = c.R[o.reg]&^o.mask | r&o.mask }

// sbBound is a fully pre-bound instruction in three-address form:
// sources a and b, destination d, and the successor PCs as offsets from
// the opcode (one physical page may be mapped at several VAs). cost is
// the instruction's whole cycle charge: the row's cost plus
// CostMemOperand per memory operand (mems). finishRecord sets loop on
// a one-instruction loop recorded on one page (see loops).
type sbBound struct {
	kind  uint8
	cond  uint8 // fbBcond predicate
	next  uint8 // fallthrough offset (the instruction's length)
	mems  uint8 // memory operands (fbMov only); 0 runs in execBound
	cost  uint16
	loop  bool // in the padding before a: sbBound stays 48 bytes
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
// bound subset: registers and literals, plus register-deferred (not on
// PC), autoincrement and absolute memory operands in fbMov rows. The
// entry's recorded items must cover the whole instruction (partial
// entries replay generically).
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
		o := sbOpnd{reg: t.reg, size: t.size, mask: sizeMask(t.size)}
		switch t.kind {
		case evLiteral:
			o = sbOpnd{size: t.size, imm: t.imm}
		case evRegister:
		case evRegDef:
			o.mode = sbRegDef
		case evAutoInc:
			o.mode = sbAutoInc
		case evAbsolute:
			o.mode, o.imm = sbAbs, t.imm
		default:
			return sbBound{}
		}
		if o.mode != sbVal {
			if kind != fbMov || o.mode == sbRegDef && o.reg == RegPC {
				return sbBound{}
			}
			fb.mems++
			fb.cost += CostMemOperand
		}
		ops[i] = o
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

// execBound runs one pre-bound register/literal instruction (fb.mems
// == 0) whose opcode is at base and returns the new PC, which it also
// stores (the run loop goes on from the returned copy without reloading
// it). Condition-code updates replicate setNZ/setNZVC and the handlers
// bit for bit; cycle charges match the interpreter.
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

// loops reports whether fb is a one-instruction loop: a SOBGTR or
// SOBGEQ taken to its own opcode. Other branches to themselves run one
// iteration per step.
func (fb *sbBound) loops() bool {
	return (fb.kind == fbSobgtr || fb.kind == fbSobgeq) && fb.taken == 0
}

// execLoop runs the one-instruction loop fb, whose opcode is at base,
// in closed form as the first step of a run with the given budget. Its
// n iterations are those the budget allows, that start below the
// nearest device deadline, and that come no later than the one that
// falls through. It applies them at once: n times the cost, and the
// counter, N and Z (V clear, C kept) and PC the last iteration leaves.
// It returns n, or changes nothing and returns 0 when n is below 2, and
// that iteration runs as a step of its own. The caller credits the
// decode hits, bound hits, instructions and reused translations and
// ticks the devices (settleRun).
func (c *CPU) execLoop(fb *sbBound, base uint32, budget uint64) uint64 {
	// The iteration that falls through, in execBound's int32 arithmetic
	// with wrapping: SOBGTR from 0x80000000 runs 2^31 iterations, and
	// SOBGEQ exits one iteration past zero. n <= 2^31+1 and cost <
	// 2^16, so n*cost cannot overflow, and Cycles wraps as it would one
	// iteration at a time.
	exit := uint64(1)
	if r := int32(c.R[fb.d.reg] - 1); r > 0 || r == 0 && fb.kind == fbSobgeq {
		exit += uint64(r)
		if fb.kind == fbSobgeq {
			exit++
		}
	}
	cost := uint64(fb.cost)
	d := c.deadline() // ⌈d/cost⌉ iterations start below it
	n := min(budget, exit, d/cost+min(d%cost, 1))
	if n < 2 {
		return 0
	}
	c.Cycles += n * cost
	c.R[fb.d.reg] -= uint32(n)
	c.setNZ(c.R[fb.d.reg], 4)
	pc := base // the taken target
	if n == exit {
		pc += uint32(fb.next)
	}
	c.R[RegPC] = pc
	return n
}

// execMem runs a pre-bound memory move (fb.mems > 0) whose opcode is at
// base and returns the new PC, which it also stores, and true; or it
// changes nothing and returns false, and the instruction must run its
// generic handler. Addresses are computed in operand order: a's
// pending autoincrement moves d when both use one register, so
// "movl (r1)+, (r1)+" reads at r1 and writes at r1+4. Each memory
// operand is probed without counting, d with write intent. To commit,
// it credits the probes as translations, applies the autoincrements,
// reads the source (a register source after the increments, as the
// generic handler reads it), and stores through invalidateStore.
func (c *CPU) execMem(fb *sbBound, base uint32) (uint32, bool) {
	a, d := &fb.a, &fb.d
	mode := c.psl.Cur()
	var src, dst []byte
	var dpa uint32
	var ok bool
	if a.mode != sbVal {
		if _, src, ok = c.memOperand(c.boundAddr(a), a.size, mmu.Read, mode); !ok {
			return 0, false
		}
	}
	if d.mode != sbVal {
		va := c.boundAddr(d)
		if a.mode == sbAutoInc && d.mode != sbAbs && a.reg == d.reg {
			va += uint32(a.size)
		}
		if dpa, dst, ok = c.memOperand(va, d.size, mmu.Write, mode); !ok {
			return 0, false
		}
	}
	c.MMU.CountFastHits(uint64(fb.mems))
	c.Cycles += uint64(fb.cost)
	if a.mode == sbAutoInc {
		c.R[a.reg] += uint32(a.size)
	}
	if d.mode == sbAutoInc {
		c.R[d.reg] += uint32(d.size)
	}
	var v uint32
	if src != nil {
		v = loadLE(src)
	} else {
		v = c.get(a)
	}
	if dst != nil {
		c.invalidateStore(dpa, uint32(d.size))
		storeLE(dst, v)
	} else {
		c.put(d, v)
	}
	c.setNZ(v, int(d.size))
	pc := base + uint32(fb.next)
	c.R[RegPC] = pc
	return pc, true
}

// boundAddr is a bound memory operand's address before any pending
// autoincrement.
func (c *CPU) boundAddr(o *sbOpnd) uint32 {
	if o.mode == sbAbs {
		return o.imm
	}
	return c.R[o.reg]
}

// memOperand probes the size bytes at va for a bound access: it returns
// their physical address and backing bytes when they lie on one page
// that the TLB grants for acc, without counting the translation, and
// are plain memory.
func (c *CPU) memOperand(va uint32, size uint8, acc mmu.Access, mode vax.Mode) (uint32, []byte, bool) {
	if va&vax.PageMask+uint32(size) > vax.PageSize {
		return 0, nil, false
	}
	pa, ok := c.MMU.Lookup(va, acc, mode)
	if !ok || !c.plain(pa, uint32(size)) {
		return 0, nil, false
	}
	b, _ := c.Mem.Window(pa, uint32(size))
	return pa, b, true
}

// loadLE reads the little-endian value of b, 1, 2 or 4 bytes long.
func loadLE(b []byte) uint32 {
	switch len(b) {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b))
	}
	return binary.LittleEndian.Uint32(b)
}

// storeLE writes v's low len(b) bytes to b, little-endian.
func storeLE(b []byte, v uint32) {
	switch len(b) {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		binary.LittleEndian.PutUint32(b, v)
	}
}
