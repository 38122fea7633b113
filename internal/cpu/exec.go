package cpu

import "repro/internal/vax"

// Instruction execution: the unprivileged data-movement, arithmetic,
// logical and control-flow handlers reached through the dispatch tables
// of dispatch.go. Sensitive and privileged instructions live in
// system.go; the fetch/decode front end (decoded-instruction cache)
// lives in dcache.go.

// reservedInstruction raises the fault taken for a reserved or
// unimplemented opcode.
func (c *CPU) reservedInstruction() *vax.Exception {
	return c.scratch.Set(vax.VecPrivInstr, vax.Fault)
}

// setNZVC replaces all four condition codes.
func (c *CPU) setNZVC(n, z, v, carry bool) {
	p := uint32(c.psl) &^ vax.PSLCC
	if n {
		p |= vax.PSLN
	}
	if z {
		p |= vax.PSLZ
	}
	if v {
		p |= vax.PSLV
	}
	if carry {
		p |= vax.PSLC
	}
	c.psl = vax.PSL(p)
}

// setNZ sets N and Z from a result of the given size, clears V, keeps C.
func (c *CPU) setNZ(val uint32, size int) {
	s := signExt(val, size)
	carry := uint32(c.psl)&vax.PSLC != 0
	c.setNZVC(s < 0, s == 0, false, carry)
}

func (c *CPU) cc(bit uint32) bool { return uint32(c.psl)&bit != 0 }

// branchIf fetches a byte displacement and branches when cond holds.
func (c *CPU) branchIf(cond bool) error {
	d, err := c.fetchStream8()
	if err != nil {
		return err
	}
	if cond {
		c.R[RegPC] += uint32(int32(int8(d)))
	}
	return nil
}

func (c *CPU) execMove(size int) error {
	src, err := c.decodeOperand(size, false)
	if err != nil {
		return err
	}
	dst, err := c.decodeOperand(size, false)
	if err != nil {
		return err
	}
	v, err := c.readOp(src)
	if err != nil {
		return err
	}
	if err := c.writeOp(dst, v); err != nil {
		return err
	}
	c.setNZ(v, size)
	return nil
}

func (c *CPU) execMovz(srcSize int) error {
	src, err := c.decodeOperand(srcSize, false)
	if err != nil {
		return err
	}
	dst, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	v, err := c.readOp(src)
	if err != nil {
		return err
	}
	if err := c.writeOp(dst, v); err != nil {
		return err
	}
	c.setNZVC(false, v == 0, false, c.cc(vax.PSLC))
	return nil
}

func (c *CPU) execClr(size int) error {
	dst, err := c.decodeOperand(size, false)
	if err != nil {
		return err
	}
	if err := c.writeOp(dst, 0); err != nil {
		return err
	}
	c.setNZ(0, size)
	return nil
}

func (c *CPU) execTst(size int) error {
	src, err := c.decodeOperand(size, false)
	if err != nil {
		return err
	}
	v, err := c.readOp(src)
	if err != nil {
		return err
	}
	c.setNZ(v, size)
	return nil
}

func (c *CPU) execMNEGL() error {
	src, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	dst, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	v, err := c.readOp(src)
	if err != nil {
		return err
	}
	r := uint32(-int32(v))
	if err := c.writeOp(dst, r); err != nil {
		return err
	}
	c.setNZVC(int32(r) < 0, r == 0, v == 0x80000000, v != 0)
	return nil
}

func (c *CPU) execMCOMB() error {
	src, err := c.decodeOperand(1, false)
	if err != nil {
		return err
	}
	dst, err := c.decodeOperand(1, false)
	if err != nil {
		return err
	}
	v, err := c.readOp(src)
	if err != nil {
		return err
	}
	r := ^v & 0xFF
	if err := c.writeOp(dst, r); err != nil {
		return err
	}
	c.setNZ(r, 1)
	return nil
}

func (c *CPU) execIncDec(inc bool) error {
	dst, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	v, err := c.readOp(dst)
	if err != nil {
		return err
	}
	var r uint32
	var ovf, carry bool
	if inc {
		r = v + 1
		ovf = v == 0x7FFFFFFF
		carry = v == 0xFFFFFFFF
	} else {
		r = v - 1
		ovf = v == 0x80000000
		carry = v == 0 // borrow
	}
	if err := c.writeOp(dst, r); err != nil {
		return err
	}
	c.setNZVC(int32(r) < 0, r == 0, ovf, carry)
	return nil
}

func (c *CPU) execPUSHL() error {
	src, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	v, err := c.readOp(src)
	if err != nil {
		return err
	}
	if err := c.Push(v); err != nil {
		return err
	}
	c.setNZ(v, 4)
	return nil
}

// execMoveAddr handles MOVAL and MOVAB. Both decode the source in
// longword address context (a simplification the assembler matches: the
// byte variant only changes the index-mode scale, which this subset's
// code never combines with MOVAB).
func (c *CPU) execMoveAddr() error {
	src, err := c.decodeOperand(4, true)
	if err != nil {
		return err
	}
	dst, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	if err := c.writeOp(dst, src.addr); err != nil {
		return err
	}
	c.setNZ(src.addr, 4)
	return nil
}

func (c *CPU) execCompare(size int) error {
	s1, err := c.decodeOperand(size, false)
	if err != nil {
		return err
	}
	s2, err := c.decodeOperand(size, false)
	if err != nil {
		return err
	}
	a, err := c.readOp(s1)
	if err != nil {
		return err
	}
	b, err := c.readOp(s2)
	if err != nil {
		return err
	}
	sa, sb := signExt(a, size), signExt(b, size)
	c.setNZVC(sa < sb, sa == sb, false, a < b)
	return nil
}

func (c *CPU) execBITL() error {
	s1, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	s2, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	a, err := c.readOp(s1)
	if err != nil {
		return err
	}
	b, err := c.readOp(s2)
	if err != nil {
		return err
	}
	r := a & b
	c.setNZ(r, 4)
	return nil
}

// execBinop handles the two- and three-operand longword forms: for the
// two-operand form the second operand is both source and destination.
// f(a, b) computes the result where a is the first operand.
func (c *CPU) execBinop(three, divide bool, f func(a, b uint32) (uint32, bool, bool)) error {
	o1, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	o2, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	dst := o2
	if three {
		dst, err = c.decodeOperand(4, false)
		if err != nil {
			return err
		}
	}
	a, err := c.readOp(o1)
	if err != nil {
		return err
	}
	b, err := c.readOp(o2)
	if err != nil {
		return err
	}
	if divide && a == 0 {
		// Divide by zero: arithmetic trap, destination unchanged.
		return c.scratch.Set1(vax.VecArithmetic, vax.Trap, 1)
	}
	r, ovf, carry := f(a, b)
	if err := c.writeOp(dst, r); err != nil {
		return err
	}
	c.setNZVC(int32(r) < 0, r == 0, ovf, carry)
	return nil
}

func (c *CPU) execASHL() error {
	cnt, err := c.decodeOperand(1, false)
	if err != nil {
		return err
	}
	src, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	dst, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	cv, err := c.readOp(cnt)
	if err != nil {
		return err
	}
	sv, err := c.readOp(src)
	if err != nil {
		return err
	}
	r, ovf := ashl(cv, sv)
	if err := c.writeOp(dst, r); err != nil {
		return err
	}
	c.setNZVC(int32(r) < 0, r == 0, ovf, false)
	return nil
}

// ashl shifts sv arithmetically by the signed byte count cnt (left
// when positive): the result, and whether a left shift lost
// significant bits.
func ashl(cnt, sv uint32) (uint32, bool) {
	n := int(int8(cnt))
	switch {
	case n >= 32:
		return 0, sv != 0
	case n > 0:
		r := sv << n
		return r, int32(r)>>n != int32(sv)
	case n <= -32:
		return uint32(int32(sv) >> 31), false
	case n < 0:
		return uint32(int32(sv) >> uint(-n)), false
	}
	return sv, false
}

// --- control flow ---

func (c *CPU) execBRW() error {
	d, err := c.fetchStream16()
	if err != nil {
		return err
	}
	c.R[RegPC] += uint32(int32(int16(d)))
	return nil
}

func (c *CPU) execBLB(set bool) error {
	src, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	v, err := c.readOp(src)
	if err != nil {
		return err
	}
	return c.branchIf(v&1 == 1 == set)
}

func (c *CPU) execJMP() error {
	dst, err := c.decodeOperand(4, true)
	if err != nil {
		return err
	}
	c.R[RegPC] = dst.addr
	return nil
}

func (c *CPU) execBSBB() error {
	d, err := c.fetchStream8()
	if err != nil {
		return err
	}
	if err := c.Push(c.R[RegPC]); err != nil {
		return err
	}
	c.R[RegPC] += uint32(int32(int8(d)))
	return nil
}

func (c *CPU) execBSBW() error {
	d, err := c.fetchStream16()
	if err != nil {
		return err
	}
	if err := c.Push(c.R[RegPC]); err != nil {
		return err
	}
	c.R[RegPC] += uint32(int32(int16(d)))
	return nil
}

func (c *CPU) execJSB() error {
	dst, err := c.decodeOperand(4, true)
	if err != nil {
		return err
	}
	if err := c.Push(c.R[RegPC]); err != nil {
		return err
	}
	c.R[RegPC] = dst.addr
	return nil
}

func (c *CPU) execRSB() error {
	pc, err := c.Pop()
	if err != nil {
		return err
	}
	c.R[RegPC] = pc
	return nil
}

// --- loop instructions ---

func (c *CPU) execAOB(leq bool) error {
	limit, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	idx, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	lv, err := c.readOp(limit)
	if err != nil {
		return err
	}
	iv, err := c.readOp(idx)
	if err != nil {
		return err
	}
	r := iv + 1
	if err := c.writeOp(idx, r); err != nil {
		return err
	}
	c.setNZ(r, 4)
	cond := int32(r) < int32(lv)
	if leq {
		cond = int32(r) <= int32(lv)
	}
	return c.branchIf(cond)
}

func (c *CPU) execSOB(gtr bool) error {
	idx, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	iv, err := c.readOp(idx)
	if err != nil {
		return err
	}
	r := iv - 1
	if err := c.writeOp(idx, r); err != nil {
		return err
	}
	c.setNZ(r, 4)
	cond := int32(r) >= 0
	if gtr {
		cond = int32(r) > 0
	}
	return c.branchIf(cond)
}
