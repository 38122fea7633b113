package cpu

import "repro/internal/vax"

// The precomputed dispatch tables. Instruction dispatch used to be a
// ~70-case switch evaluated per execution; it is now a table lookup on
// the opcode byte(s), with each row carrying the handler, the operand
// metadata the shared handlers parameterize on, and the base cycle cost
// charged up front (so cold-decode and cached-replay execution charge
// identically).

// instrEntry is one row of a dispatch table. Rows are built once in
// init() and are read-only afterwards, so they are safe to share
// between processors and goroutines.
type instrEntry struct {
	fn      func(*CPU, *instrEntry) error
	op      uint16 // full opcode (0xFDxx for extended)
	cost    uint16 // cycles charged up front: CostBase plus op extras
	nOps    uint8  // operand-specifier count
	opSize  uint8  // primary operand access size in bytes
	opSize2 uint8  // secondary operand size (CVT destination)
	bind    uint8  // bound kind for register/literal shapes (bound.go), fbNone if never bound
	cond    uint8  // branch predicate (fbBcond rows)
}

// The one-byte opcode page is variant-independent: the sensitive
// instructions that behave differently on the modified VAX (Table 4 of
// the paper) test PSL<VM> at execution time, and the standard variant
// can never set that bit. The 0xFD extended page differs by variant:
// WAIT and PROBEVM are real instructions on the modified VAX and
// privileged-instruction faults on the standard one, so Variant selects
// between table rows instead of the handlers re-checking per execution.
var (
	dispatchOne   [256]*instrEntry
	dispatchStdFD [256]*instrEntry
	dispatchModFD [256]*instrEntry
)

// lookup returns the dispatch row for a (possibly extended) opcode, or
// nil for a reserved opcode.
func (c *CPU) lookup(op uint16) *instrEntry {
	if op < 0x100 {
		return dispatchOne[op]
	}
	if c.Variant == ModifiedVAX {
		return dispatchModFD[op&0xFF]
	}
	return dispatchStdFD[op&0xFF]
}

// reg installs a row for op in the variant-shared tables and returns it
// for further decoration.
func reg(op uint16, nOps, opSize int, cost uint16, fn func(*CPU, *instrEntry) error) *instrEntry {
	e := &instrEntry{fn: fn, op: op, cost: cost, nOps: uint8(nOps), opSize: uint8(opSize)}
	if op >= 0xFD00 {
		dispatchStdFD[op&0xFF] = e
		dispatchModFD[op&0xFF] = e
	} else {
		dispatchOne[op&0xFF] = e
	}
	return e
}

// regVariantFD installs an extended opcode that exists only on the
// modified VAX; the standard-VAX row takes the privileged-instruction
// fault (Table 4), preserving the PrivTraps count.
func regVariantFD(op uint16, nOps, opSize int, modFn func(*CPU, *instrEntry) error) {
	dispatchModFD[op&0xFF] = &instrEntry{
		fn: modFn, op: op, cost: CostBase, nOps: uint8(nOps), opSize: uint8(opSize),
	}
	dispatchStdFD[op&0xFF] = &instrEntry{
		fn:   func(c *CPU, _ *instrEntry) error { return c.privFault() },
		op:   op,
		cost: CostBase,
	}
}

// bound marks a row as bindable (bound.go): its register/literal
// shapes run as the given three-address kind.
func (e *instrEntry) bound(kind uint8) *instrEntry {
	e.bind = kind
	return e
}

func regBranch(op uint16, cond uint8) {
	e := reg(op, 0, 1, CostBase, func(c *CPU, e *instrEntry) error {
		return c.branchIf(condHolds(uint32(c.psl), e.cond))
	}).bound(fbBcond)
	e.cond = cond
}

// regBinop installs the two- and three-operand forms of a longword
// operation; kind binds both (fbNone keeps them generic).
func regBinop(op2, op3 uint16, extra uint16, kind uint8, divide bool, f func(a, b uint32) (uint32, bool, bool)) {
	h := func(c *CPU, e *instrEntry) error {
		return c.execBinop(e.nOps == 3, divide, f)
	}
	reg(op2, 2, 4, CostBase+extra, h).bound(kind)
	reg(op3, 3, 4, CostBase+extra, h).bound(kind)
}

func regCVT(op uint16, srcSize, dstSize int) {
	e := reg(op, 2, srcSize, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execCVT(e)
	}).bound(fbCvt)
	e.opSize2 = uint8(dstSize)
}

func init() {
	// --- system control, call and specialized instructions ---
	reg(vax.OpNOP, 0, 0, CostBase, func(*CPU, *instrEntry) error { return nil })
	reg(vax.OpHALT, 0, 0, CostBase, func(c *CPU, _ *instrEntry) error { return c.execHALT() })
	reg(vax.OpREI, 0, 0, CostBase, func(c *CPU, _ *instrEntry) error { return c.execREI() })
	reg(vax.OpBPT, 0, 0, CostBase, func(c *CPU, _ *instrEntry) error {
		return c.scratch.Set(vax.VecBreakpoint, vax.Trap)
	})
	reg(vax.OpXFC, 0, 0, CostBase, func(c *CPU, _ *instrEntry) error {
		return c.scratch.Set(vax.VecCustReserved, vax.Fault)
	})
	reg(vax.OpLDPCTX, 0, 0, CostBase, func(c *CPU, _ *instrEntry) error { return c.execLDPCTX() })
	reg(vax.OpSVPCTX, 0, 0, CostBase, func(c *CPU, _ *instrEntry) error { return c.execSVPCTX() })
	reg(vax.OpCALLS, 2, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execCALLS() })
	reg(vax.OpRET, 0, 0, CostBase, func(c *CPU, _ *instrEntry) error { return c.execRET() })
	reg(vax.OpMOVC3, 3, 2, CostBase, func(c *CPU, _ *instrEntry) error { return c.execMOVC3() })
	reg(vax.OpCMPC3, 3, 2, CostBase, func(c *CPU, _ *instrEntry) error { return c.execCMPC3() })
	reg(vax.OpINSQUE, 2, 1, CostBase, func(c *CPU, _ *instrEntry) error { return c.execINSQUE() })
	reg(vax.OpREMQUE, 2, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execREMQUE() })
	reg(vax.OpMOVPSL, 1, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execMOVPSL() })
	reg(vax.OpMTPR, 2, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execMTPR() })
	reg(vax.OpMFPR, 2, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execMFPR() })
	for _, op := range []uint16{vax.OpPROBER, vax.OpPROBEW} {
		reg(op, 3, 1, CostBase, func(c *CPU, e *instrEntry) error { return c.execPROBE(e.op) })
	}
	for _, op := range []uint16{vax.OpCHMK, vax.OpCHME, vax.OpCHMS, vax.OpCHMU} {
		reg(op, 1, 2, CostBase, func(c *CPU, e *instrEntry) error { return c.execCHM(e.op) })
	}

	// Extended (0xFD-prefixed) page: modified-VAX-only instructions.
	regVariantFD(vax.OpWAIT, 0, 0, func(c *CPU, _ *instrEntry) error { return c.execWAIT() })
	for _, op := range []uint16{vax.OpPROBEVMR, vax.OpPROBEVMW} {
		regVariantFD(op, 2, 1, func(c *CPU, e *instrEntry) error { return c.execPROBEVM(e.op) })
	}

	// --- moves and simple unary operations ---
	for _, m := range []struct {
		op   uint16
		size int
	}{{vax.OpMOVL, 4}, {vax.OpMOVW, 2}, {vax.OpMOVB, 1}} {
		reg(m.op, 2, m.size, CostBase, func(c *CPU, e *instrEntry) error {
			return c.execMove(int(e.opSize))
		}).bound(fbMov)
	}
	reg(vax.OpMOVZBL, 2, 1, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execMovz(int(e.opSize))
	}).bound(fbMov)
	reg(vax.OpMOVZWL, 2, 2, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execMovz(int(e.opSize))
	}).bound(fbMov)
	for _, m := range []struct {
		op   uint16
		size int
	}{{vax.OpCLRL, 4}, {vax.OpCLRW, 2}, {vax.OpCLRB, 1}} {
		reg(m.op, 1, m.size, CostBase, func(c *CPU, e *instrEntry) error {
			return c.execClr(int(e.opSize))
		}).bound(fbMov)
	}
	for _, m := range []struct {
		op   uint16
		size int
	}{{vax.OpTSTL, 4}, {vax.OpTSTW, 2}, {vax.OpTSTB, 1}} {
		reg(m.op, 1, m.size, CostBase, func(c *CPU, e *instrEntry) error {
			return c.execTst(int(e.opSize))
		}).bound(fbTst)
	}
	reg(vax.OpMNEGL, 2, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execMNEGL() }).bound(fbMneg)
	reg(vax.OpMCOMB, 2, 1, CostBase, func(c *CPU, _ *instrEntry) error { return c.execMCOMB() }).bound(fbMcom)
	reg(vax.OpINCL, 1, 4, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execIncDec(e.op == vax.OpINCL)
	}).bound(fbAdd)
	reg(vax.OpDECL, 1, 4, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execIncDec(e.op == vax.OpINCL)
	}).bound(fbSub)
	reg(vax.OpPUSHL, 1, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execPUSHL() })
	// MOVAB shares MOVAL's longword address context (see execMoveAddr).
	reg(vax.OpMOVAL, 2, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execMoveAddr() })
	reg(vax.OpMOVAB, 2, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execMoveAddr() })

	// --- comparison and bit test ---
	for _, m := range []struct {
		op   uint16
		size int
	}{{vax.OpCMPL, 4}, {vax.OpCMPW, 2}, {vax.OpCMPB, 1}} {
		reg(m.op, 2, m.size, CostBase, func(c *CPU, e *instrEntry) error {
			return c.execCompare(int(e.opSize))
		}).bound(fbCmp)
	}
	reg(vax.OpBITL, 2, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execBITL() }).bound(fbBit)

	// --- longword arithmetic and logic ---
	regBinop(vax.OpADDL2, vax.OpADDL3, 0, fbAdd, false, func(a, b uint32) (uint32, bool, bool) {
		r := b + a
		ovf := (a^r)&(b^r)&0x80000000 != 0
		return r, ovf, r < a
	})
	regBinop(vax.OpSUBL2, vax.OpSUBL3, 0, fbSub, false, func(a, b uint32) (uint32, bool, bool) {
		// a is the subtrahend: result = b - a.
		r := b - a
		ovf := (a^b)&(b^r)&0x80000000 != 0
		return r, ovf, b < a
	})
	regBinop(vax.OpMULL2, vax.OpMULL3, CostMul, fbMul, false, func(a, b uint32) (uint32, bool, bool) {
		full := int64(int32(a)) * int64(int32(b))
		r := uint32(full)
		return r, full != int64(int32(r)), false
	})
	// DIVL stays generic in every shape: a zero divisor traps.
	regBinop(vax.OpDIVL2, vax.OpDIVL3, CostDiv, fbNone, true, func(a, b uint32) (uint32, bool, bool) {
		// a is the divisor: result = b / a. Zero divisor handled by the
		// caller via divide check.
		if a == 0 {
			return 0, true, false
		}
		if b == 0x80000000 && a == 0xFFFFFFFF {
			return b, true, false
		}
		return uint32(int32(b) / int32(a)), false, false
	})
	regBinop(vax.OpBISL2, vax.OpBISL3, 0, fbBis, false, func(a, b uint32) (uint32, bool, bool) {
		return b | a, false, false
	})
	regBinop(vax.OpBICL2, vax.OpBICL3, 0, fbBic, false, func(a, b uint32) (uint32, bool, bool) {
		return b &^ a, false, false
	})
	regBinop(vax.OpXORL2, vax.OpXORL3, 0, fbXor, false, func(a, b uint32) (uint32, bool, bool) {
		return b ^ a, false, false
	})
	reg(vax.OpASHL, 3, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execASHL() }).bound(fbAsh)

	// --- integer convert ---
	regCVT(vax.OpCVTBL, 1, 4)
	regCVT(vax.OpCVTBW, 1, 2)
	regCVT(vax.OpCVTWL, 2, 4)
	regCVT(vax.OpCVTWB, 2, 1)
	regCVT(vax.OpCVTLB, 4, 1)
	regCVT(vax.OpCVTLW, 4, 2)

	// --- control flow ---
	reg(vax.OpBRB, 0, 1, CostBase, func(c *CPU, _ *instrEntry) error { return c.branchIf(true) }).bound(fbBr)
	regBranch(vax.OpBNEQ, fbcNEQ)
	regBranch(vax.OpBEQL, fbcEQL)
	regBranch(vax.OpBGTR, fbcGTR)
	regBranch(vax.OpBLEQ, fbcLEQ)
	regBranch(vax.OpBGEQ, fbcGEQ)
	regBranch(vax.OpBLSS, fbcLSS)
	regBranch(vax.OpBGTRU, fbcGTRU)
	regBranch(vax.OpBLEQU, fbcLEQU)
	regBranch(vax.OpBVC, fbcVC)
	regBranch(vax.OpBVS, fbcVS)
	regBranch(vax.OpBCC, fbcCC)
	regBranch(vax.OpBCS, fbcCS)
	reg(vax.OpBRW, 0, 2, CostBase, func(c *CPU, _ *instrEntry) error { return c.execBRW() }).bound(fbBr)
	reg(vax.OpBLBS, 1, 4, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execBLB(e.op == vax.OpBLBS)
	}).bound(fbBlbs)
	reg(vax.OpBLBC, 1, 4, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execBLB(e.op == vax.OpBLBS)
	}).bound(fbBlbc)
	reg(vax.OpBBS, 2, 4, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execBB(e.op == vax.OpBBS)
	})
	reg(vax.OpBBC, 2, 4, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execBB(e.op == vax.OpBBS)
	})
	reg(vax.OpJMP, 1, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execJMP() })
	reg(vax.OpBSBB, 0, 1, CostBase, func(c *CPU, _ *instrEntry) error { return c.execBSBB() })
	reg(vax.OpBSBW, 0, 2, CostBase, func(c *CPU, _ *instrEntry) error { return c.execBSBW() })
	reg(vax.OpJSB, 1, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execJSB() })
	reg(vax.OpRSB, 0, 0, CostBase, func(c *CPU, _ *instrEntry) error { return c.execRSB() })
	reg(vax.OpACBL, 3, 4, CostBase, func(c *CPU, _ *instrEntry) error { return c.execACBL() })
	reg(vax.OpAOBLSS, 2, 4, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execAOB(e.op == vax.OpAOBLEQ)
	}).bound(fbAoblss)
	reg(vax.OpAOBLEQ, 2, 4, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execAOB(e.op == vax.OpAOBLEQ)
	}).bound(fbAobleq)
	reg(vax.OpSOBGEQ, 1, 4, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execSOB(e.op == vax.OpSOBGTR)
	}).bound(fbSobgeq)
	reg(vax.OpSOBGTR, 1, 4, CostBase, func(c *CPU, e *instrEntry) error {
		return c.execSOB(e.op == vax.OpSOBGTR)
	}).bound(fbSobgtr)
}
