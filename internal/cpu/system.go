package cpu

import (
	"repro/internal/vax"
)

// The sensitive and privileged instructions, with the behaviour matrix
// of Table 4 of the paper: each reacts to the architecture variant and,
// on the modified VAX, to PSL<VM>.

func (c *CPU) privFault() error {
	c.Stats.PrivTraps++
	return c.scratch.Set(vax.VecPrivInstr, vax.Fault)
}

// vmTrap raises a VM-emulation trap carrying the microcode-decoded
// operand package of Section 4.2. kind is Trap for instructions the VMM
// completes (saved PC = next instruction) and Fault for instructions
// retried after the VMM intervenes (PROBE shadow fills).
func (c *CPU) vmTrap(kind vax.ExcKind, op uint16, operands []uint32, wb *vax.OperandRef) error {
	c.Stats.VMTraps++
	c.Cycles += CostVMTrap
	return c.vmScratch.Set(kind, op, c.instStartPC, c.R[RegPC], c.GuestPSL(), operands, wb)
}

// vmKernel reports whether the processor is executing the VM's kernel
// mode (the condition under which privileged sensitive instructions use
// the VM-emulation trap, Section 4.4.1).
func (c *CPU) vmKernel() bool {
	return c.InVMMode() && c.VMPSL.Cur() == vax.Kernel
}

// SetWaiting puts the processor in (or out of) the WAIT idle state; used
// by the VMM when every virtual machine is idle.
func (c *CPU) SetWaiting(on bool) { c.waiting = on }

// Waiting reports the WAIT idle state.
func (c *CPU) Waiting() bool { return c.waiting }

// --- CHM ---

func (c *CPU) execCHM(op uint16) error {
	target, _ := vax.CHMTarget(op)
	codeOp, err := c.decodeOperand(2, false)
	if err != nil {
		return err
	}
	code, err := c.readOp(codeOp)
	if err != nil {
		return err
	}
	code = uint32(signExt(code, 2))
	c.Stats.CHMs++

	if c.InVMMode() {
		// Modified VAX: CHM is sensitive (reads and writes PSL modes);
		// in VM mode it traps to the VMM with the decoded code operand.
		return c.vmTrap(vax.Trap, op, []uint32{code, uint32(target)}, nil)
	}

	if c.psl.IS() {
		// CHM on the interrupt stack is illegal.
		return c.scratch.Set(vax.VecKernelStkInv, vax.Abort)
	}
	// The new mode has privilege no lower than the current mode: CHM can
	// only hold or increase privilege, but the vector is always that of
	// the instruction's target mode.
	newMode := target
	if c.psl.Cur().MorePrivileged(target) {
		newMode = c.psl.Cur()
	}
	c.Cycles += CostCHM
	c.Stats.Exceptions++
	return c.DispatchSCB(c.scratch.Set1(vax.CHMVector(target), vax.Trap, code), newMode)
}

// --- REI ---

func (c *CPU) execREI() error {
	c.Stats.REIs++
	if c.InVMMode() {
		// "REI is one of the most complex VAX instructions;
		// virtualization makes it doubly so" — the bulk of the work is
		// done in VMM software (Section 4.2.3).
		return c.vmTrap(vax.Trap, vax.OpREI, nil, nil)
	}
	newPC, err := c.Pop()
	if err != nil {
		return err
	}
	rawPSL, err := c.Pop()
	if err != nil {
		return err
	}
	newPSL := vax.PSL(rawPSL)
	if err := c.checkREIPSL(newPSL); err != nil {
		return err
	}
	c.Cycles += CostREI
	c.SetPSL(newPSL)
	c.R[RegPC] = newPC
	return nil
}

// checkREIPSL performs the REI sanity checks: the new PSL may not
// increase privilege, raise IPL, set reserved bits (including PSL<VM> —
// software cannot enter VM mode through REI), or claim the interrupt
// stack improperly.
func (c *CPU) checkREIPSL(n vax.PSL) error {
	cur := c.psl
	switch {
	case uint32(n)&(vax.PSLMBZ|vax.PSLVM) != 0,
		n.Cur().MorePrivileged(cur.Cur()),
		n.Prv().MorePrivileged(n.Cur()),
		n.IS() && !cur.IS(),
		n.IS() && n.Cur() != vax.Kernel,
		n.IPL() > 0 && n.Cur() != vax.Kernel,
		n.IPL() > cur.IPL():
		return c.rsvdOperand()
	}
	return nil
}

// --- MOVPSL ---

func (c *CPU) execMOVPSL() error {
	dst, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	c.Stats.MOVPSLs++
	var v uint32
	if c.InVMMode() {
		// Microcode merge of VMPSL and the real PSL (Section 4.2.1):
		// never traps, always produces the VM's PSL.
		c.Cycles += CostMOVPSLMerge
		v = uint32(c.GuestPSL())
	} else {
		// PSL<VM> is never visible to software reads.
		v = uint32(c.psl) &^ vax.PSLVM
	}
	return c.writeOp(dst, v)
}

// --- PROBE ---

func (c *CPU) execPROBE(op uint16) error {
	modeOp, err := c.decodeOperand(1, false)
	if err != nil {
		return err
	}
	lenOp, err := c.decodeOperand(2, false)
	if err != nil {
		return err
	}
	baseOp, err := c.decodeOperand(1, true)
	if err != nil {
		return err
	}
	modeVal, err := c.readOp(modeOp)
	if err != nil {
		return err
	}
	lenVal, err := c.readOp(lenOp)
	if err != nil {
		return err
	}
	base := baseOp.addr
	if lenVal == 0 {
		lenVal = 1
	}
	c.Stats.Probes++
	c.Cycles += CostProbe

	write := op == vax.OpPROBEW
	// The probe mode is the less privileged of the mode operand and the
	// previous mode — the VM's previous mode when in VM mode, which is
	// why VMPSL makes unprivileged PROBE work under ring compression.
	prv := c.psl.Prv()
	if c.InVMMode() {
		prv = c.VMPSL.Prv()
	}
	probeMode := vax.LeastPrivileged(vax.Mode(modeVal&3), prv)

	// PROBE tests the first and last byte of the structure (Table 2).
	addrs := []uint32{base, base + lenVal - 1}
	if vax.PageBase(addrs[0]) == vax.PageBase(addrs[1]) {
		addrs = addrs[:1]
	}
	accessible := true
	for _, va := range addrs {
		if c.InVMMode() {
			pte, inLen, err := c.MMU.ProbePTE(va)
			if err != nil {
				return err
			}
			if !inLen {
				accessible = false
				continue
			}
			if !pte.Valid() {
				// Shadow PTE not filled: the protection code is not
				// meaningful, so trap to the VMM and retry after the
				// fill (Section 4.3.2).
				return c.vmTrap(vax.Fault, op,
					[]uint32{modeVal & 3, lenVal, base, va}, nil)
			}
			prot := pte.Prot()
			ok := prot.CanRead(probeMode)
			if write {
				ok = prot.CanWrite(probeMode)
				if !ok && c.ProbeWTrapOnDeny {
					// Under the read-only-shadow scheme a write denial
					// may just mean "not yet modified": only the VMM
					// can tell, from the VM's own page table
					// (Section 4.4.2's rejected alternative).
					return c.vmTrap(vax.Fault, op,
						[]uint32{modeVal & 3, lenVal, base, va}, nil)
				}
			}
			if !ok {
				accessible = false
			}
			continue
		}
		a := mmuAccess(write)
		ok, err := c.MMU.Probe(va, a, probeMode)
		if err != nil {
			return err
		}
		if !ok {
			accessible = false
		}
	}
	// Z set means not accessible; N and V cleared, C unchanged.
	c.setNZVC(false, !accessible, false, c.cc(vax.PSLC))
	return nil
}

// --- PROBEVM ---

// execPROBEVM is reached only on the modified VAX: the standard
// variant's dispatch row raises the privileged instruction trap of
// Table 4 without decoding.
func (c *CPU) execPROBEVM(op uint16) error {
	modeOp, err := c.decodeOperand(1, false)
	if err != nil {
		return err
	}
	baseOp, err := c.decodeOperand(1, true)
	if err != nil {
		return err
	}
	modeVal, err := c.readOp(modeOp)
	if err != nil {
		return err
	}
	base := baseOp.addr

	if c.InVMMode() {
		// PROBEVM is itself privileged and sensitive (Section 4.3.3).
		if c.vmKernel() {
			return c.vmTrap(vax.Trap, op, []uint32{modeVal & 3, base}, nil)
		}
		return c.privFault()
	}
	if c.psl.Cur() != vax.Kernel {
		return c.privFault()
	}

	// Probe mode is no more privileged than executive (Table 2).
	probeMode := vax.LeastPrivileged(vax.Mode(modeVal&3), vax.Executive)
	write := op == vax.OpPROBEVMW

	// Tests only one byte; tests protection, validity, modify in that
	// order (Table 2). Z: protection denies. V: PTE invalid. C: write
	// probe of an unmodified page.
	pte, inLen, err := c.MMU.ProbePTE(base)
	if err != nil {
		return err
	}
	c.Cycles += CostProbe
	switch {
	case !inLen:
		c.setNZVC(false, true, false, false)
	case func() bool {
		if write {
			return !pte.Prot().CanWrite(probeMode)
		}
		return !pte.Prot().CanRead(probeMode)
	}():
		c.setNZVC(false, true, false, false)
	case !pte.Valid():
		c.setNZVC(false, false, true, false)
	case write && !pte.Modified():
		c.setNZVC(false, false, false, true)
	default:
		c.setNZVC(false, false, false, false)
	}
	return nil
}

// --- WAIT ---

// execWAIT is reached only on the modified VAX (see execPROBEVM).
func (c *CPU) execWAIT() error {
	if c.InVMMode() {
		if c.vmKernel() {
			// The WAIT handshake: the VM tells the VMM it is idle
			// (Section 5); the VMM can run another VM.
			return c.vmTrap(vax.Trap, vax.OpWAIT, nil, nil)
		}
		return c.privFault()
	}
	// On the modified bare machine WAIT behaves as on a standard VAX:
	// privileged instruction trap (Table 4, "no change").
	return c.privFault()
}

// --- MTPR / MFPR ---

func (c *CPU) execMTPR() error {
	srcOp, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	regOp, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	src, err := c.readOp(srcOp)
	if err != nil {
		return err
	}
	regNum, err := c.readOp(regOp)
	if err != nil {
		return err
	}
	if c.InVMMode() {
		if c.vmKernel() {
			return c.vmTrap(vax.Trap, vax.OpMTPR, []uint32{src, regNum}, nil)
		}
		// "If the VM is not in kernel mode, these instructions cause a
		// privileged instruction trap instead" (Section 4.4.1).
		return c.privFault()
	}
	if c.psl.Cur() != vax.Kernel {
		return c.privFault()
	}
	return c.WriteIPR(vax.IPR(regNum), src)
}

func (c *CPU) execMFPR() error {
	regOp, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	dstOp, err := c.decodeOperand(4, false)
	if err != nil {
		return err
	}
	regNum, err := c.readOp(regOp)
	if err != nil {
		return err
	}
	if c.InVMMode() {
		if c.vmKernel() {
			return c.vmTrap(vax.Trap, vax.OpMFPR, []uint32{regNum},
				c.vmScratch.Ref(dstOp.kind == opRegister, dstOp.reg, dstOp.addr))
		}
		return c.privFault()
	}
	if c.psl.Cur() != vax.Kernel {
		return c.privFault()
	}
	v, err := c.ReadIPR(vax.IPR(regNum))
	if err != nil {
		return err
	}
	if err := c.writeOp(dstOp, v); err != nil {
		return err
	}
	c.setNZ(v, 4)
	return nil
}

// WriteIPR performs the architectural effect of MTPR to register r.
// Exported because the VMM uses it when emulating MTPR for registers it
// chooses to pass through.
func (c *CPU) WriteIPR(r vax.IPR, v uint32) error {
	for _, h := range c.iprs {
		if h.WriteIPR(c, r, v) {
			c.Cycles += CostMTPR
			return nil
		}
	}
	switch r {
	case vax.IPRKSP, vax.IPRESP, vax.IPRSSP, vax.IPRUSP:
		c.SetStackFor(vax.Mode(r), v)
	case vax.IPRISP:
		if c.onISP {
			c.R[RegSP] = v
		} else {
			c.ISP = v
		}
	case vax.IPRP0BR:
		c.MMU.P0BR = v
	case vax.IPRP0LR:
		c.MMU.P0LR = v
	case vax.IPRP1BR:
		c.MMU.P1BR = v
	case vax.IPRP1LR:
		c.MMU.P1LR = v
	case vax.IPRSBR:
		c.MMU.SBR = v
	case vax.IPRSLR:
		c.MMU.SLR = v
	case vax.IPRPCBB:
		c.PCBB = v
	case vax.IPRSCBB:
		c.SCBB = v &^ uint32(vax.PageMask)
	case vax.IPRIPL:
		c.psl = c.psl.WithIPL(uint8(v))
		c.Cycles += CostMTPRIPL
		return nil
	case vax.IPRSIRR:
		if v >= 1 && v <= vax.IPLSoftwareMax {
			c.SISR |= 1 << v
		}
	case vax.IPRSISR:
		c.SISR = v & 0xFFFE
	case vax.IPRASTL:
		c.ASTLVL = v
	case vax.IPRMPEN:
		c.MMU.Enabled = v&1 == 1
		c.MMU.TBIA()
	case vax.IPRTBIA:
		c.MMU.TBIA()
	case vax.IPRTBIS:
		c.MMU.TBIS(v)
	case vax.IPRSID, vax.IPRTODR:
		// Read-only or unimplemented writes are ignored.
	default:
		// Nonexistent register (including the virtual-VAX registers on a
		// real machine, Table 4): reserved operand fault.
		return c.rsvdOperand()
	}
	c.Cycles += CostMTPR
	return nil
}

// ReadIPR performs the architectural effect of MFPR from register r.
func (c *CPU) ReadIPR(r vax.IPR) (uint32, error) {
	for _, h := range c.iprs {
		if v, ok := h.ReadIPR(c, r); ok {
			c.Cycles += CostMFPR
			return v, nil
		}
	}
	c.Cycles += CostMFPR
	switch r {
	case vax.IPRKSP, vax.IPRESP, vax.IPRSSP, vax.IPRUSP:
		return c.StackFor(vax.Mode(r)), nil
	case vax.IPRISP:
		if c.onISP {
			return c.R[RegSP], nil
		}
		return c.ISP, nil
	case vax.IPRP0BR:
		return c.MMU.P0BR, nil
	case vax.IPRP0LR:
		return c.MMU.P0LR, nil
	case vax.IPRP1BR:
		return c.MMU.P1BR, nil
	case vax.IPRP1LR:
		return c.MMU.P1LR, nil
	case vax.IPRSBR:
		return c.MMU.SBR, nil
	case vax.IPRSLR:
		return c.MMU.SLR, nil
	case vax.IPRPCBB:
		return c.PCBB, nil
	case vax.IPRSCBB:
		return c.SCBB, nil
	case vax.IPRIPL:
		return uint32(c.psl.IPL()), nil
	case vax.IPRSISR:
		return c.SISR, nil
	case vax.IPRASTL:
		return c.ASTLVL, nil
	case vax.IPRMPEN:
		if c.MMU.Enabled {
			return 1, nil
		}
		return 0, nil
	case vax.IPRSID:
		return c.SID, nil
	}
	return 0, c.rsvdOperand()
}

// --- HALT ---

func (c *CPU) execHALT() error {
	if c.InVMMode() {
		if c.vmKernel() {
			return c.vmTrap(vax.Trap, vax.OpHALT, nil, nil)
		}
		return c.privFault()
	}
	if c.psl.Cur() != vax.Kernel {
		return c.privFault()
	}
	c.Halt(HaltInstruction)
	return nil
}

// --- LDPCTX / SVPCTX ---

// Process control block layout (longword offsets from PCBB, which is a
// physical address).
const (
	PCBKSP  = 0
	PCBESP  = 4
	PCBSSP  = 8
	PCBUSP  = 12
	PCBR0   = 16 // R0..R11 at 16..60
	PCBAP   = 64
	PCBFP   = 68
	PCBPC   = 72
	PCBPSL  = 76
	PCBP0BR = 80
	PCBP0LR = 84
	PCBP1BR = 88
	PCBP1LR = 92
	PCBSize = 96
)

func (c *CPU) execLDPCTX() error {
	if c.InVMMode() {
		if c.vmKernel() {
			return c.vmTrap(vax.Trap, vax.OpLDPCTX, nil, nil)
		}
		return c.privFault()
	}
	if c.psl.Cur() != vax.Kernel {
		return c.privFault()
	}
	c.Cycles += CostContextSwitch
	rd := func(off uint32) (uint32, error) { return c.Mem.LoadLong(c.PCBB + off) }

	for i, off := range []uint32{PCBKSP, PCBESP, PCBSSP, PCBUSP} {
		v, err := rd(off)
		if err != nil {
			return err
		}
		c.SetStackFor(vax.Mode(i), v)
	}
	for i := 0; i < 12; i++ {
		v, err := rd(PCBR0 + uint32(4*i))
		if err != nil {
			return err
		}
		c.R[i] = v
	}
	for _, p := range []struct {
		off uint32
		dst *uint32
	}{
		{PCBAP, &c.R[RegAP]}, {PCBFP, &c.R[RegFP]},
		{PCBP0BR, &c.MMU.P0BR}, {PCBP0LR, &c.MMU.P0LR},
		{PCBP1BR, &c.MMU.P1BR}, {PCBP1LR, &c.MMU.P1LR},
	} {
		v, err := rd(p.off)
		if err != nil {
			return err
		}
		*p.dst = v
	}
	// Loading a new process context invalidates the process-space
	// translations.
	c.MMU.TBIA()
	// Push the saved PC/PSL on the kernel stack so REI resumes the
	// process.
	pc, err := rd(PCBPC)
	if err != nil {
		return err
	}
	psl, err := rd(PCBPSL)
	if err != nil {
		return err
	}
	if err := c.Push(psl); err != nil {
		return err
	}
	return c.Push(pc)
}

func (c *CPU) execSVPCTX() error {
	if c.InVMMode() {
		if c.vmKernel() {
			return c.vmTrap(vax.Trap, vax.OpSVPCTX, nil, nil)
		}
		return c.privFault()
	}
	if c.psl.Cur() != vax.Kernel {
		return c.privFault()
	}
	c.Cycles += CostContextSwitch
	// Pop the resume PC/PSL pushed by the exception that suspended the
	// process.
	pc, err := c.Pop()
	if err != nil {
		return err
	}
	psl, err := c.Pop()
	if err != nil {
		return err
	}
	// The PCB is written past the CPU's store path, so the writes drop
	// the cached decodes they overwrite themselves.
	wr := func(off uint32, v uint32) error {
		c.InvalidateDecode(c.PCBB+off, 4)
		return c.Mem.StoreLong(c.PCBB+off, v)
	}
	for i, off := range []uint32{PCBKSP, PCBESP, PCBSSP, PCBUSP} {
		if err := wr(off, c.StackFor(vax.Mode(i))); err != nil {
			return err
		}
	}
	for i := 0; i < 12; i++ {
		if err := wr(PCBR0+uint32(4*i), c.R[i]); err != nil {
			return err
		}
	}
	for _, p := range []struct {
		off uint32
		v   uint32
	}{
		{PCBAP, c.R[RegAP]}, {PCBFP, c.R[RegFP]},
		{PCBPC, pc}, {PCBPSL, psl},
		{PCBP0BR, c.MMU.P0BR}, {PCBP0LR, c.MMU.P0LR},
		{PCBP1BR, c.MMU.P1BR}, {PCBP1LR, c.MMU.P1LR},
	} {
		if err := wr(p.off, p.v); err != nil {
			return err
		}
	}
	return nil
}
