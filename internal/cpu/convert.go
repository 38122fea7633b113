package cpu

import "repro/internal/vax"

// Integer convert and add-compare-branch instructions.

// execCVT implements the integer convert family: sign-extend on
// widening, truncate with overflow detection on narrowing. The source
// and destination sizes come from the dispatch entry (opSize/opSize2).
func (c *CPU) execCVT(e *instrEntry) error {
	srcSize, dstSize := int(e.opSize), int(e.opSize2)
	src, err := c.decodeOperand(srcSize, false)
	if err != nil {
		return err
	}
	dst, err := c.decodeOperand(dstSize, false)
	if err != nil {
		return err
	}
	v, err := c.readOp(src)
	if err != nil {
		return err
	}
	r, ovf := cvt(v, srcSize, dstSize)
	if err := c.writeOp(dst, r); err != nil {
		return err
	}
	c.setNZVC(signExt(r, dstSize) < 0, signExt(r, dstSize) == 0, ovf, false)
	return nil
}

// cvt converts v, read at srcSize bytes, to dstSize bytes: the value
// sign-extended, and whether it overflows the destination.
func cvt(v uint32, srcSize, dstSize int) (uint32, bool) {
	s := signExt(v, srcSize)
	switch dstSize {
	case 1:
		return uint32(s), s < -128 || s > 127
	case 2:
		return uint32(s), s < -32768 || s > 32767
	}
	return uint32(s), false
}

// execACBL implements add-compare-branch: index += add; branch (word
// displacement) while the index has not passed limit, in the direction
// of add's sign.
func (c *CPU) execACBL() error {
	limitOp, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	addOp, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	idxOp, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	limit, err := c.readOp(limitOp)
	if err != nil {
		return err
	}
	add, err := c.readOp(addOp)
	if err != nil {
		return err
	}
	idx, err := c.readOp(idxOp)
	if err != nil {
		return err
	}
	r := idx + add
	if err := c.writeOp(idxOp, r); err != nil {
		return err
	}
	ovf := (add^r)&(idx^r)&0x80000000 != 0
	c.setNZVC(int32(r) < 0, r == 0, ovf, c.cc(vax.PSLC))
	d, err := c.fetchStream16()
	if err != nil {
		return err
	}
	taken := int32(r) <= int32(limit)
	if int32(add) < 0 {
		taken = int32(r) >= int32(limit)
	}
	if taken {
		c.R[RegPC] += uint32(int32(int16(d)))
	}
	return nil
}
