package core

import (
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/vax"
)

// emulate services a VM-emulation trap: the single path by which every
// sensitive instruction reaches the VMM, with operands already decoded
// by microcode (Section 4.4.1).
func (k *VMM) emulate(vm *VM, info *vax.VMTrapInfo) {
	if info == nil {
		k.haltVM(vm, "VM-emulation trap without decode information")
		return
	}
	switch info.Opcode {
	case vax.OpCHMK, vax.OpCHME, vax.OpCHMS, vax.OpCHMU:
		k.emulateCHM(vm, info)
	case vax.OpREI:
		k.emulateREI(vm, info)
	case vax.OpMTPR:
		k.emulateMTPR(vm, info)
	case vax.OpMFPR:
		k.emulateMFPR(vm, info)
	case vax.OpLDPCTX:
		k.emulateLDPCTX(vm, info)
	case vax.OpSVPCTX:
		k.emulateSVPCTX(vm, info)
	case vax.OpHALT:
		k.haltVM(vm, "HALT executed in VM kernel mode")
	case vax.OpWAIT:
		k.emulateWAIT(vm, info)
	case vax.OpPROBER, vax.OpPROBEW:
		k.emulatePROBE(vm, info)
	case vax.OpPROBEVMR, vax.OpPROBEVMW:
		// The VAX security kernel does not support self-virtualization;
		// PROBEVM inside a VM is an unimplemented instruction
		// (Section 4.3.3).
		k.resumeVM(vm)
		k.reflect(vm, vm.gfSet(vax.VecPrivInstr))
	case 0xFFFF:
		// Trap-all scheme: "emulate" the instruction by granting one
		// direct step, charging the per-instruction emulation cost.
		vm.Stats.TrapAllSteps++
		k.charge(cpu.CostVMMDispatch)
		k.CPU.StepVMInstruction()
		k.resumeVM(vm)
	default:
		k.haltVM(vm, "VM-emulation trap for unexpected opcode")
	}
}

// emulateCHM forwards a change-mode instruction to the VM: "the VMM can
// then do the proper stack pointer and stack manipulation, examine the
// VM's SCB, and forward the CHM exception to the VM" (Section 4.2.2).
func (k *VMM) emulateCHM(vm *VM, info *vax.VMTrapInfo) {
	vm.Stats.CHMs++
	if vm.rec != nil {
		vm.rec.Record(trace.EvCHM, k.CPU.Cycles, k.CPU.PC(), info.Operands[0])
	}
	k.charge(cpu.CostVMMCHM)
	k.noteProgress(vm)
	code := info.Operands[0]
	target := vax.Mode(info.Operands[1])
	newMode := target
	if info.GuestPSL.Cur().MorePrivileged(target) {
		newMode = info.GuestPSL.Cur()
	}
	k.deliverToVM(vm, vax.CHMVector(target), []uint32{code}, info.NextPC, newMode, -1)
}

// emulateREI performs the software bulk of REI for the VM
// (Section 4.2.3): pop and validate the new PSL, compress its modes,
// switch stacks, and deliver any virtual interrupt that became
// deliverable.
func (k *VMM) emulateREI(vm *VM, info *vax.VMTrapInfo) {
	vm.Stats.REIs++
	c := k.CPU
	if vm.rec != nil {
		vm.rec.Record(trace.EvREI, c.Cycles, c.PC(), info.NextPC)
	}
	k.charge(cpu.CostVMMREI)
	cur := info.GuestPSL.Cur()

	sp := c.SP()
	newPC, gf := k.guestRead(vm, sp, cur)
	if gf == nil && !vm.halted {
		var raw uint32
		raw, gf = k.guestRead(vm, sp+4, cur)
		if gf == nil && !vm.halted {
			newPSL := vax.PSL(raw)
			if bad := checkGuestREI(vm, info.GuestPSL, newPSL); bad != nil {
				k.resumeVM(vm)
				k.reflect(vm, bad)
				return
			}
			// Commit: consume the two longwords and switch contexts.
			c.SetSP(sp + 8)
			k.saveGuestSP(vm)
			c.VMPSL = vax.PSL(0).WithCur(newPSL.Cur()).WithPrv(newPSL.Prv()).WithIPL(newPSL.IPL())
			if newPSL.IS() {
				c.VMPSL = vax.PSL(uint32(c.VMPSL) | vax.PSLIS)
			}
			real := vax.PSL(uint32(newPSL) & 0xFF).
				WithCur(compressMode(newPSL.Cur())).
				WithPrv(compressMode(newPSL.Prv())).
				WithVM(true)
			c.SetPSL(real)
			c.SetSP(k.guestSP(vm))
			c.SetPC(newPC)
			// Dropping IPL may make a virtual interrupt deliverable.
			k.deliverPendingIRQs(vm)
			return
		}
	}
	if vm.halted {
		return
	}
	k.resumeVM(vm)
	k.reflect(vm, gf)
}

// checkGuestREI applies the REI sanity rules to the VM's own PSL image.
func checkGuestREI(vm *VM, cur, n vax.PSL) *guestFault {
	switch {
	case uint32(n)&(vax.PSLMBZ|vax.PSLVM) != 0,
		n.Cur().MorePrivileged(cur.Cur()),
		n.Prv().MorePrivileged(n.Cur()),
		n.IS() && !cur.IS(),
		n.IS() && n.Cur() != vax.Kernel,
		n.IPL() > 0 && n.Cur() != vax.Kernel,
		n.IPL() > cur.IPL():
		return vm.rsvdOperandFault()
	}
	return nil
}

// emulateWAIT implements the idle handshake (Section 5): the VM gives
// up the processor until a virtual interrupt is pending or the timeout
// elapses.
func (k *VMM) emulateWAIT(vm *VM, info *vax.VMTrapInfo) {
	vm.Stats.Waits++
	if vm.rec != nil {
		vm.rec.Record(trace.EvSchedPark, k.CPU.Cycles, k.CPU.PC(), info.NextPC)
	}
	k.noteProgress(vm)
	vm.waiting = true
	vm.waitDeadline = k.Stats.ClockTicks + k.cfg.WaitTimeout
	k.tickJoin(vm)
	vm.pc = info.NextPC
	k.CPU.SetPC(info.NextPC)
	k.scheduleNext()
}

// emulatePROBE completes a PROBE whose shadow PTE was invalid
// (Section 4.3.2): the VMM updates the shadow page table from the VM's
// page table and computes the accessibility result itself.
func (k *VMM) emulatePROBE(vm *VM, info *vax.VMTrapInfo) {
	vm.Stats.ProbeFills++
	c := k.CPU
	modeOp := vax.Mode(info.Operands[0] & 3)
	length := info.Operands[1]
	base := info.Operands[2]
	if length == 0 {
		length = 1
	}
	write := info.Opcode == vax.OpPROBEW
	probeMode := vax.LeastPrivileged(modeOp, info.GuestPSL.Prv())

	accessible := true
	for _, va := range []uint32{base, base + length - 1} {
		// Fill the shadow as a side effect so the next PROBE or access
		// of this page goes through without a trap.
		gpte, gf := k.guestPTE(vm, va, false)
		if vm.halted {
			return
		}
		if gf != nil {
			accessible = false
			continue
		}
		if gpte.Valid() && !gpte.Prot().Reserved() {
			_ = k.fillShadow(vm, va, false)
			if vm.halted {
				return
			}
		}
		// The VM's view: its own (uncompressed) protection code.
		prot := gpte.Prot()
		ok := prot.CanRead(probeMode)
		if write {
			ok = prot.CanWrite(probeMode)
		}
		if !ok {
			accessible = false
		}
	}
	// Complete the instruction: set Z (not accessible), clear N and V,
	// and continue past the PROBE.
	p := uint32(c.PSL()) &^ (vax.PSLN | vax.PSLZ | vax.PSLV)
	if !accessible {
		p |= vax.PSLZ
	}
	c.SetPSL(vax.PSL(p).WithVM(true))
	c.SetPC(info.NextPC)
}

// emulateLDPCTX loads a guest process context from the VM's PCB,
// including the address-space switch through the shadow machinery.
func (k *VMM) emulateLDPCTX(vm *VM, info *vax.VMTrapInfo) {
	c := k.CPU
	k.charge(cpu.CostVMMContextSwitch)
	rd := func(off uint32) (uint32, bool) { return vm.readPhys(vm.pcbb + off) }

	// The PCB image is staged in a per-VM scratch array: LDPCTX runs on
	// every guest context switch and must not allocate.
	vals := vm.pcb[:]
	for i := range vals {
		v, ok := rd(uint32(4 * i))
		if !ok {
			k.haltVM(vm, "PCB outside VM memory")
			return
		}
		vals[i] = v
	}
	vm.SPs[vax.Kernel] = vals[cpu.PCBKSP/4]
	vm.SPs[vax.Executive] = vals[cpu.PCBESP/4]
	vm.SPs[vax.Supervisor] = vals[cpu.PCBSSP/4]
	vm.SPs[vax.User] = vals[cpu.PCBUSP/4]
	for i := 0; i < 12; i++ {
		c.R[i] = vals[cpu.PCBR0/4+i]
	}
	c.R[cpu.RegAP] = vals[cpu.PCBAP/4]
	c.R[cpu.RegFP] = vals[cpu.PCBFP/4]
	newP1BR := vals[cpu.PCBP1BR/4]
	if newP1BR != vm.p1br {
		// Per-process P1 space: the single shadow P1 table must drop
		// the previous process's translations.
		vm.p1br = newP1BR
		if err := vm.shadow.clearP1(k); err != nil {
			k.haltVM(vm, err.Error())
			return
		}
	}
	vm.p1lr = vals[cpu.PCBP1LR/4]
	vm.p0lr = vals[cpu.PCBP0LR/4]
	newP0BR := vals[cpu.PCBP0BR/4]
	if newP0BR != vm.p0br {
		vm.p0br = newP0BR
		if err := vm.shadow.switchProcess(k, newP0BR); err != nil {
			k.haltVM(vm, "shadow switch failed: "+err.Error())
			return
		}
	} else {
		vm.shadow.activate(c)
	}

	// Push the PCB's PC/PSL on the guest kernel stack for the REI.
	sp := vm.SPs[vax.Kernel]
	pushPSL, pushPC := vals[cpu.PCBPSL/4], vals[cpu.PCBPC/4]
	for _, v := range []uint32{pushPSL, pushPC} {
		sp -= 4
		if gf := k.guestWrite(vm, sp, v, vax.Kernel); gf != nil || vm.halted {
			k.haltVM(vm, "kernel stack not valid in LDPCTX")
			return
		}
	}
	vm.SPs[vax.Kernel] = sp
	if c.VMPSL.Cur() == vax.Kernel && !c.VMPSL.IS() {
		c.SetSP(sp)
	}
	c.SetPC(info.NextPC)
	k.resumeVM(vm)
}

// emulateSVPCTX saves the guest process context into the VM's PCB.
func (k *VMM) emulateSVPCTX(vm *VM, info *vax.VMTrapInfo) {
	c := k.CPU
	k.charge(cpu.CostVMMContextSwitch)
	// Pop the resume PC/PSL from the guest kernel stack.
	k.saveGuestSP(vm)
	sp := vm.SPs[vax.Kernel]
	pc, gf := k.guestRead(vm, sp, vax.Kernel)
	if gf != nil || vm.halted {
		k.haltVM(vm, "kernel stack not valid in SVPCTX")
		return
	}
	psl, gf := k.guestRead(vm, sp+4, vax.Kernel)
	if gf != nil || vm.halted {
		k.haltVM(vm, "kernel stack not valid in SVPCTX")
		return
	}
	vm.SPs[vax.Kernel] = sp + 8

	wr := func(off uint32, v uint32) bool { return vm.writePhys(vm.pcbb+off, v) }
	ok := wr(cpu.PCBKSP, vm.SPs[vax.Kernel]) &&
		wr(cpu.PCBESP, vm.SPs[vax.Executive]) &&
		wr(cpu.PCBSSP, vm.SPs[vax.Supervisor]) &&
		wr(cpu.PCBUSP, vm.SPs[vax.User]) &&
		wr(cpu.PCBPC, pc) && wr(cpu.PCBPSL, psl) &&
		wr(cpu.PCBP0BR, vm.p0br) && wr(cpu.PCBP0LR, vm.p0lr) &&
		wr(cpu.PCBP1BR, vm.p1br) && wr(cpu.PCBP1LR, vm.p1lr) &&
		wr(cpu.PCBAP, c.R[cpu.RegAP]) && wr(cpu.PCBFP, c.R[cpu.RegFP])
	for i := 0; ok && i < 12; i++ {
		ok = wr(cpu.PCBR0+uint32(4*i), c.R[i])
	}
	if !ok {
		k.haltVM(vm, "PCB outside VM memory")
		return
	}
	if c.VMPSL.Cur() == vax.Kernel && !c.VMPSL.IS() {
		c.SetSP(vm.SPs[vax.Kernel])
	}
	k.noteProgress(vm)
	c.SetPC(info.NextPC)
	k.resumeVM(vm)
}
