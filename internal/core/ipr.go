package core

import (
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/vax"
)

// emulateMTPR services MTPR from VM kernel mode. Registers that shape
// the virtual processor update VMM-side state; the mapping registers
// feed the shadow machinery; TBIA/TBIS keep shadows coherent with the
// VM's page tables; KCALL is the start-I/O handshake.
func (k *VMM) emulateMTPR(vm *VM, info *vax.VMTrapInfo) {
	c := k.CPU
	v := info.Operands[0]
	reg := vax.IPR(info.Operands[1])

	if reg == vax.IPRIPL {
		// The hot path of Section 7.3: emulating MTPR-to-IPL costs the
		// VMM ten to twelve times the optimized hardware path.
		vm.Stats.MTPRIPL++
		k.charge(cpu.CostVMMMTPRIPL)
		c.VMPSL = c.VMPSL.WithIPL(uint8(v))
		c.SetPC(info.NextPC)
		k.resumeVM(vm)
		k.deliverPendingIRQs(vm)
		return
	}

	vm.Stats.MTPROther++
	k.charge(cpu.CostVMMMTPROther)
	done := func() {
		if vm.halted || k.Current() != vm {
			return
		}
		c.SetPC(info.NextPC)
		k.resumeVM(vm)
	}

	switch reg {
	case vax.IPRKSP, vax.IPRESP, vax.IPRSSP, vax.IPRUSP:
		m := vax.Mode(reg)
		if !c.VMPSL.IS() && c.VMPSL.Cur() == m {
			c.SetSP(v)
		} else {
			vm.SPs[m] = v
		}
	case vax.IPRISP:
		if c.VMPSL.IS() {
			c.SetSP(v)
		} else {
			vm.ISP = v
		}
	case vax.IPRSCBB:
		vm.scbb = v &^ uint32(vax.PageMask)
	case vax.IPRPCBB:
		vm.pcbb = v
	case vax.IPRSIRR:
		if v >= 1 && v <= vax.IPLSoftwareMax {
			vm.sisr |= 1 << v
		}
		c.SetPC(info.NextPC)
		k.resumeVM(vm)
		k.deliverPendingIRQs(vm)
		return
	case vax.IPRSISR:
		vm.sisr = v & 0xFFFE
	case vax.IPRASTL:
		vm.astlvl = v
	case vax.IPRP0BR:
		if v != vm.p0br {
			vm.p0br = v
			if err := vm.shadow.switchProcess(k, v); err != nil {
				k.haltVM(vm, "shadow switch failed: "+err.Error())
				return
			}
		}
	case vax.IPRP0LR:
		vm.p0lr = v
		vm.shadow.activate(c)
	case vax.IPRP1BR:
		vm.p1br = v
		_ = vm.shadow.clearP1(k)
		c.MMU.TBIA()
	case vax.IPRP1LR:
		vm.p1lr = v
		vm.shadow.activate(c)
	case vax.IPRSBR:
		vm.sbr = v
		_ = vm.shadow.clearSRegion(k)
		c.MMU.TBIA()
	case vax.IPRSLR:
		vm.slr = min32(v, VMSLimitPTEs)
		_ = vm.shadow.clearSRegion(k)
		c.MMU.TBIA()
	case vax.IPRMPEN:
		vm.mapen = v&1 == 1
		vm.shadow.activate(c)
		c.MMU.TBIA()
	case vax.IPRTBIA:
		// The VM invalidated all translations: its PTEs may have
		// changed arbitrarily, so drop every shadow translation.
		_ = vm.shadow.clearSRegion(k)
		if err := vm.shadow.clearSlot(k, vm.shadow.active); err != nil {
			k.haltVM(vm, err.Error())
			return
		}
		vm.shadow.slots[vm.shadow.active].owner = vm.p0br
		_ = vm.shadow.clearP1(k)
		c.MMU.TBIA()
	case vax.IPRTBIS:
		vm.shadow.invalidate(k, v)
	case vax.IPRICCS:
		vm.clockOn = v&vax.ICCSRun != 0
		vm.clockIE = v&vax.ICCSIE != 0
		if v&vax.ICCSInt != 0 {
			vm.irqs.Clear(vax.IPLClock)
		}
	case vax.IPRNICR, vax.IPRICR, vax.IPRTODR:
		// The virtual clock period is the VMM's tick; reload values are
		// accepted and ignored.
	case vax.IPRTXCS, vax.IPRRXCS:
		vm.cons.SetCSR(reg, v)
	case vax.IPRTXDB:
		vm.cons.Put(byte(v))
	case vax.IPRKCALL:
		vm.Stats.KCALLs++
		k.charge(cpu.CostVMMIOStart)
		// Complete the MTPR before servicing: the KCALL may deliver a
		// virtual machine check, and the handler PC it establishes must
		// not be clobbered by done()'s advance past the instruction.
		c.SetPC(info.NextPC)
		k.resumeVM(vm)
		if vm.rec != nil {
			kcStart, fn := c.Cycles, c.R[0]
			vm.rec.Record(trace.EvKCallStart, kcStart, c.PC(), fn)
			k.kcall(vm, v)
			vm.rec.Record(trace.EvKCallDone, c.Cycles, c.PC(), c.R[0])
			if (fn == KCallDiskRead || fn == KCallDiskWrite) && c.R[0] == KCallStatusOK {
				// A disk KCALL completes when its virtual IRQ is
				// delivered; the latency span closes there.
				vm.kcallStart, vm.kcallPending = kcStart, true
			} else {
				vm.rec.Observe(trace.LatKCall, c.Cycles-kcStart)
			}
		} else {
			k.kcall(vm, v)
		}
		return
	case vax.IPRIORESET:
		vm.disk.reset()
		vm.cons = vConsole{}
	default:
		k.resumeVM(vm)
		k.reflect(vm, vm.rsvdOperandFault())
		return
	}
	done()
}

// emulateMFPR services MFPR from VM kernel mode, completing the
// instruction's result write through the microcode-provided operand
// reference.
func (k *VMM) emulateMFPR(vm *VM, info *vax.VMTrapInfo) {
	c := k.CPU
	vm.Stats.MFPRs++
	k.charge(cpu.CostVMMMTPROther)
	reg := vax.IPR(info.Operands[0])

	var v uint32
	switch reg {
	case vax.IPRKSP, vax.IPRESP, vax.IPRSSP, vax.IPRUSP:
		m := vax.Mode(reg)
		if !c.VMPSL.IS() && c.VMPSL.Cur() == m {
			v = c.SP()
		} else {
			v = vm.SPs[m]
		}
	case vax.IPRISP:
		if c.VMPSL.IS() {
			v = c.SP()
		} else {
			v = vm.ISP
		}
	case vax.IPRSCBB:
		v = vm.scbb
	case vax.IPRPCBB:
		v = vm.pcbb
	case vax.IPRIPL:
		v = uint32(c.VMPSL.IPL())
	case vax.IPRSISR:
		v = vm.sisr
	case vax.IPRASTL:
		v = vm.astlvl
	case vax.IPRP0BR:
		v = vm.p0br
	case vax.IPRP0LR:
		v = vm.p0lr
	case vax.IPRP1BR:
		v = vm.p1br
	case vax.IPRP1LR:
		v = vm.p1lr
	case vax.IPRSBR:
		v = vm.sbr
	case vax.IPRSLR:
		v = vm.slr
	case vax.IPRMPEN:
		if vm.mapen {
			v = 1
		}
	case vax.IPRICCS:
		if vm.clockOn {
			v |= vax.ICCSRun
		}
		if vm.clockIE {
			v |= vax.ICCSIE
		}
	case vax.IPRTODR:
		v = uint32(vm.ticks)
	case vax.IPRSID:
		// A distinct processor-type code identifies the virtual VAX.
		v = virtualSID
	case vax.IPRTXCS:
		v = vax.ConsoleReady
	case vax.IPRRXCS:
		v = vm.cons.RXCS()
	case vax.IPRRXDB:
		v = vm.cons.Get()
	case vax.IPRMEMSIZE:
		// Section 5: "The VMOS must read a processor-specific register
		// (MEMSIZE) to determine the total amount of memory available."
		v = vm.MemSize
	default:
		k.resumeVM(vm)
		k.reflect(vm, vm.rsvdOperandFault())
		return
	}
	// Complete the result write in the VM's context.
	k.resumeVM(vm)
	if info.WriteBack != nil {
		if err := c.WriteRef(info.WriteBack, v); err != nil {
			k.reflect(vm, vm.gfSet2(vax.VecAccessViol, 0, 0))
			return
		}
	}
	c.SetPC(info.NextPC)
}

// virtualSID is the system identification of the virtual VAX processor
// — "a unique or specific member of a family of processors" (Section 8).
const virtualSID uint32 = 0x56560001
