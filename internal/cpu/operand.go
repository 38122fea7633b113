package cpu

import "repro/internal/vax"

// Operand specifier decoding, following the VAX general addressing modes.
// Supported specifiers: short literal, register, register deferred,
// autodecrement, autoincrement (and immediate), autoincrement deferred
// (and absolute), byte/word/long displacement (and PC-relative) plus
// their deferred forms, and index mode prefixes.
//
// Decoding is split in two halves so the decoded-instruction cache can
// skip the parse on re-execution:
//
//   - parseSpec consumes specifier bytes from the instruction stream
//     and produces a position-independent template (dspec). It has no
//     register or memory side effects.
//   - evalSpec turns a template into an operand, performing the
//     register side effects (autoincrement/autodecrement) and deferred
//     memory reads each execution.
//
// Templates store displacements and immediates, never absolute
// addresses derived from PC, so a cached instruction replays correctly
// even when the same physical page is mapped at several virtual
// addresses: evalSpec reads the live PC, which decodeOperand positions
// at the template's recorded end offset before evaluating.

type opKind uint8

const (
	opLiteral opKind = iota // 6-bit short literal
	opRegister
	opMemory
)

// operand is one decoded operand.
type operand struct {
	kind opKind
	reg  int    // register number (opRegister)
	addr uint32 // virtual address (opMemory)
	lit  uint32 // literal value (opLiteral)
	size int    // access size in bytes
}

// Specifier template kinds.
const (
	evLiteral    uint8 = iota // imm holds the literal/immediate value
	evRegister                // reg
	evRegDef                  // addr = R[reg]
	evAutoDec                 // R[reg] -= size; addr = R[reg]
	evAutoInc                 // addr = R[reg]; R[reg] += size
	evAutoIncDef              // ptr = R[reg]; R[reg] += 4; addr = M[ptr]
	evImmAddr                 // addr of the immediate datum (PC - size)
	evAbsolute                // addr = imm
	evDisp                    // addr = R[reg] + imm (PC-relative when reg==PC)
	evDispDef                 // addr = M[R[reg] + imm]
)

// noIndex marks a template without an index-register prefix.
const noIndex = 0xFF

// dspec is a parsed operand-specifier template.
type dspec struct {
	kind   uint8
	reg    uint8
	xreg   uint8 // index register, noIndex if absent
	size   uint8 // access size in bytes
	endOff uint8 // PC offset from instruction start after this spec
	imm    uint32
}

func (c *CPU) rsvdAddrMode() *vax.Exception {
	return c.scratch.Set(vax.VecRsvdAddrMode, vax.Fault)
}

func (c *CPU) rsvdOperand() *vax.Exception {
	return c.scratch.Set(vax.VecRsvdOperand, vax.Fault)
}

// decodeOperand produces one operand of the given access size from the
// instruction stream, through the decode cursor: on replay the recorded
// template is evaluated directly (positioning PC past the specifier
// bytes); otherwise the specifier is parsed from the live stream and,
// when recording, captured for the decoded-instruction cache. wantAddr
// is true for address-context operands (MOVAx, JMP, JSB destinations),
// which forbid register and literal modes.
func (c *CPU) decodeOperand(size int, wantAddr bool) (operand, error) {
	if c.cur.mode == curReplay {
		if t, ok := c.cur.nextSpec(); ok {
			c.R[RegPC] = c.instStartPC + uint32(t.endOff)
			return c.evalSpec(t)
		}
		// Recorded items exhausted (partially recorded entry): fall back
		// to parsing the live stream, which is always correct because
		// every replayed item left PC at its recorded end offset.
	}
	t, err := c.parseSpec(size, wantAddr, true)
	if err != nil {
		return operand{}, err
	}
	c.cur.record(t)
	return c.evalSpec(t)
}

// parseSpec consumes one operand specifier from the instruction stream
// and returns its template. allowIndex permits an index-mode prefix
// (one level, as the architecture allows).
func (c *CPU) parseSpec(size int, wantAddr, allowIndex bool) (dspec, error) {
	spec, err := c.fetchByte()
	if err != nil {
		return dspec{}, err
	}
	mode := spec >> 4
	rn := spec & 0xF

	// Index mode: the specifier is a prefix; the base operand follows.
	if mode == 4 {
		if rn == RegPC || !allowIndex {
			return dspec{}, c.rsvdAddrMode()
		}
		base, err := c.parseSpec(size, true, false)
		if err != nil {
			return dspec{}, err
		}
		base.xreg = rn
		base.size = uint8(size)
		base.endOff = uint8(c.R[RegPC] - c.instStartPC)
		return base, nil
	}

	t := dspec{reg: rn, xreg: noIndex, size: uint8(size)}
	switch {
	case mode < 4: // short literal 0..63
		if wantAddr {
			return dspec{}, c.rsvdAddrMode()
		}
		t.kind = evLiteral
		t.imm = uint32(spec & 0x3F)

	case mode == 5: // register
		if wantAddr || rn == RegPC {
			return dspec{}, c.rsvdAddrMode()
		}
		t.kind = evRegister

	case mode == 6: // register deferred (Rn)
		t.kind = evRegDef

	case mode == 7: // autodecrement -(Rn)
		if rn == RegPC {
			return dspec{}, c.rsvdAddrMode()
		}
		t.kind = evAutoDec

	case mode == 8: // autoincrement (Rn)+ / immediate #x
		if rn == RegPC {
			// Immediate: the value follows in the instruction stream.
			var v uint32
			switch size {
			case 1:
				b, err := c.fetchByte()
				if err != nil {
					return dspec{}, err
				}
				v = uint32(b)
			case 2:
				w, err := c.fetchWord()
				if err != nil {
					return dspec{}, err
				}
				v = uint32(w)
			default:
				l, err := c.fetchLong()
				if err != nil {
					return dspec{}, err
				}
				v = l
			}
			if wantAddr {
				t.kind = evImmAddr // address of the immediate datum
			} else {
				t.kind = evLiteral
				t.imm = v
			}
			break
		}
		t.kind = evAutoInc

	case mode == 9: // autoincrement deferred @(Rn)+ / absolute @#addr
		if rn == RegPC {
			a, err := c.fetchLong()
			if err != nil {
				return dspec{}, err
			}
			t.kind = evAbsolute
			t.imm = a
			break
		}
		t.kind = evAutoIncDef

	default: // 0xA..0xF displacement modes
		var disp uint32
		switch mode &^ 1 {
		case 0xA: // byte displacement
			b, err := c.fetchByte()
			if err != nil {
				return dspec{}, err
			}
			disp = uint32(int32(int8(b)))
		case 0xC: // word displacement
			w, err := c.fetchWord()
			if err != nil {
				return dspec{}, err
			}
			disp = uint32(int32(int16(w)))
		default: // 0xE long displacement
			l, err := c.fetchLong()
			if err != nil {
				return dspec{}, err
			}
			disp = l
		}
		t.imm = disp
		if mode&1 == 1 {
			t.kind = evDispDef
		} else {
			t.kind = evDisp
		}
	}
	t.endOff = uint8(c.R[RegPC] - c.instStartPC)
	return t, nil
}

// evalSpec evaluates a specifier template against the current machine
// state. PC is already positioned at the template's end offset (either
// by the live parse or by the replay cursor), which is what makes the
// PC-relative and immediate kinds position-independent.
func (c *CPU) evalSpec(t dspec) (operand, error) {
	size := int(t.size)
	var addr uint32
	switch t.kind {
	case evLiteral:
		return operand{kind: opLiteral, lit: t.imm, size: size}, nil
	case evRegister:
		return operand{kind: opRegister, reg: int(t.reg), size: size}, nil
	case evRegDef:
		addr = c.R[t.reg]
	case evAutoDec:
		c.R[t.reg] -= uint32(size)
		addr = c.R[t.reg]
	case evAutoInc:
		addr = c.R[t.reg]
		c.R[t.reg] += uint32(size)
	case evAutoIncDef:
		ptr := c.R[t.reg]
		c.R[t.reg] += 4
		a, err := c.LoadLong(ptr)
		if err != nil {
			return operand{}, err
		}
		addr = a
	case evImmAddr:
		addr = c.R[RegPC] - uint32(size)
	case evAbsolute:
		addr = t.imm
	case evDisp:
		// For PC-relative specifiers the base is PC after the
		// displacement bytes, which is where PC stands now.
		addr = c.R[t.reg] + t.imm
	case evDispDef:
		a, err := c.LoadLong(c.R[t.reg] + t.imm)
		if err != nil {
			return operand{}, err
		}
		addr = a
	}
	if t.xreg != noIndex {
		addr += c.R[t.xreg] * uint32(size)
	}
	return operand{kind: opMemory, addr: addr, size: size}, nil
}

// readOp fetches the value of a decoded operand, zero-extended to 32
// bits.
func (c *CPU) readOp(op operand) (uint32, error) {
	switch op.kind {
	case opLiteral:
		return op.lit, nil
	case opRegister:
		switch op.size {
		case 1:
			return c.R[op.reg] & 0xFF, nil
		case 2:
			return c.R[op.reg] & 0xFFFF, nil
		}
		return c.R[op.reg], nil
	default:
		c.Cycles += CostMemOperand
		return c.LoadVirt(op.addr, op.size, c.psl.Cur())
	}
}

// writeOp stores a value to a decoded operand. Byte and word writes to
// registers leave the high bits unchanged, per the architecture.
func (c *CPU) writeOp(op operand, v uint32) error {
	switch op.kind {
	case opLiteral:
		return c.rsvdOperand()
	case opRegister:
		switch op.size {
		case 1:
			c.R[op.reg] = c.R[op.reg]&^uint32(0xFF) | v&0xFF
		case 2:
			c.R[op.reg] = c.R[op.reg]&^uint32(0xFFFF) | v&0xFFFF
		default:
			c.R[op.reg] = v
		}
		return nil
	default:
		c.Cycles += CostMemOperand
		return c.StoreVirt(op.addr, op.size, v, c.psl.Cur())
	}
}

// WriteRef stores a longword to an OperandRef on behalf of the VMM,
// completing an emulated instruction's result write (Section 4.2: "The
// VMM may need to probe addresses when instruction results are written
// to memory").
func (c *CPU) WriteRef(r *vax.OperandRef, v uint32) error {
	if r.IsRegister {
		c.R[r.Register] = v
		return nil
	}
	return c.StoreVirt(r.Address, 4, v, c.psl.Cur())
}

// signExt widens an operand value of the given size to a signed int32.
func signExt(v uint32, size int) int32 {
	switch size {
	case 1:
		return int32(int8(v))
	case 2:
		return int32(int16(v))
	}
	return int32(v)
}
