package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/vax"
)

// HandleException implements cpu.ExceptionSink: the VMM owns every
// event the real machine's kernel vectors would receive. Returning true
// consumes the event; the CPU continues from whatever state the VMM
// established.
func (k *VMM) HandleException(c *cpu.CPU, e *vax.Exception) bool {
	k.Stats.VMMEntries++
	start := c.Cycles
	k.enterVMM()
	defer k.exitVMM()

	if e.Kind == vax.Interrupt {
		k.handleRealInterrupt(e, start)
		return true
	}
	vm := k.Current()
	if !e.FromVM || vm == nil {
		// A synchronous exception with no VM on the processor: the VMM
		// itself is host code and takes none, so this is a machine
		// error.
		c.Halt(cpu.HaltDoubleError)
		return true
	}

	switch e.Vector {
	case vax.VecVMEmulation:
		vm.Stats.VMTraps++
		if vm.rec != nil {
			arg := uint32(0)
			if e.VMInfo != nil {
				arg = uint32(e.VMInfo.Opcode)
			}
			vm.rec.Record(trace.EvVMTrap, start, c.PC(), arg)
			k.emulate(vm, e.VMInfo)
			vm.rec.Observe(trace.LatTrap, c.Cycles-start)
		} else {
			k.emulate(vm, e.VMInfo)
		}
	case vax.VecTransNotValid:
		k.handleTNV(vm, e)
	case vax.VecAccessViol:
		if k.cfg.ReadOnlyShadow && e.Params[0]&vax.FaultParamWrite != 0 &&
			k.tryROShadowUpgrade(vm, e.Params[1]) {
			k.resumeVM(vm)
			return true
		}
		k.resumeVM(vm)
		// Copy the parameters: e may be backed by the MMU's scratch
		// exception, whose storage is reused at the next fault.
		k.reflect(vm, vm.gfCopy(vax.VecAccessViol, e.Params))
	case vax.VecModifyFault:
		k.handleModifyFault(vm, e)
	case vax.VecMachineCheck:
		// Section 5, "Hardware errors": the only error visible to the
		// VMOS is a reference to nonexistent memory; the VMM responds
		// by halting the VM.
		k.haltVM(vm, fmt.Sprintf("machine check at pc=%#x", c.PC()))
	case vax.VecKernelStkInv:
		k.haltVM(vm, "kernel stack not valid")
	default:
		// Everything else (privileged instruction, reserved operand,
		// reserved addressing, arithmetic, breakpoint, CHM-less traps)
		// belongs to the VM's own operating system.
		if e.Vector == vax.VecPrivInstr {
			k.event(vm, trace.EvPrivFault, 0, "")
		}
		k.resumeVM(vm)
		// As above: copy out of the scratch exception's storage.
		k.reflect(vm, vm.gfCopy(e.Vector, e.Params))
	}
	return true
}

// enterVMM charges the VMM entry cost; under the separate-address-space
// scheme every crossing also pays an address-space switch and TLB flush
// (Section 7.1).
func (k *VMM) enterVMM() {
	k.charge(cpu.CostVMMDispatch)
	if k.cfg.Scheme == SeparateAddressSpace {
		k.charge(cpu.CostVMMAddrSpaceSwitch)
		k.CPU.MMU.TBIA()
	}
}

func (k *VMM) exitVMM() {
	if k.cfg.Scheme == SeparateAddressSpace {
		k.charge(cpu.CostVMMAddrSpaceSwitch)
		k.CPU.MMU.TBIA()
	}
}

// resumeVM re-enters VM mode on the current PSL (used after handlers
// that didn't change the guest context themselves).
func (k *VMM) resumeVM(vm *VM) {
	if vm.halted || k.Current() != vm {
		return
	}
	k.CPU.SetPSL(k.CPU.PSL().WithVM(true))
}

// handleTNV services a translation-not-valid fault taken while a VM was
// executing: a shadow PTE is still the null PTE. Either the VM's page
// is valid — fill the shadow and retry — or the fault belongs to the
// VM's operating system.
func (k *VMM) handleTNV(vm *VM, e *vax.Exception) {
	va := e.Params[1]
	write := e.Params[0]&vax.FaultParamWrite != 0

	if k.cfg.MMIOEmulatedIO && vm.mapen {
		if gpte, gf := k.guestPTE(vm, va, write); gf == nil && !vm.halted &&
			gpte.Valid() && isDeviceFrame(gpte.PFN()) {
			k.emulateMMIO(vm, va, gpte)
			return
		}
	}
	if !vm.mapen {
		// With guest mapping off the identity map covers all of the
		// VM's memory; a miss is a nonexistent-memory reference.
		k.haltVM(vm, fmt.Sprintf("unmapped reference to %#x with memory management off", va))
		return
	}
	gf := k.fillShadow(vm, va, write)
	if vm.halted {
		return
	}
	if gf != nil {
		k.resumeVM(vm)
		k.reflect(vm, gf)
		return
	}
	// Shadow filled: resume the VM; the faulting instruction retries.
	k.resumeVM(vm)
}

// tryROShadowUpgrade resolves a write access violation under the
// read-only-shadow scheme: if the VM's own page table permits the
// write, mark the page modified there and refill the shadow with its
// full (writable) protection. Returns false when the violation is
// genuine and belongs to the VMOS.
func (k *VMM) tryROShadowUpgrade(vm *VM, va uint32) bool {
	if !vm.mapen {
		return false
	}
	gpte, gf := k.guestPTE(vm, va, true)
	if gf != nil || vm.halted {
		return false
	}
	// The default scheme's shadow of an unmodified PTE keeps the
	// compressed guest protection whole: the write is checked against it.
	full, m := k.shadowPTEFor(vm, gpte.WithModify(false), false)
	if m == noMapNonexistent {
		k.haltNonexistent(vm, gpte.PFN())
		return true
	}
	if m != mapped || !full.Prot().CanWrite(compressMode(k.CPU.VMPSL.Cur())) {
		return false
	}
	vm.Stats.ROWriteFaults++
	k.charge(cpu.CostVMMModifyFault + cpu.CostVMMShadowFill)
	// The denied write may target a COW-shared frame (the read-only
	// scheme encodes both "unmodified" and "shared" as write-denying
	// protection): privatize before granting write access.
	if !k.cowBreak(vm, gpte.PFN()) {
		return true
	}
	k.setGuestPTEModify(vm, va)
	spte, _ := k.shadowPTEFor(vm, gpte.WithModify(true), k.cfg.ReadOnlyShadow)
	if slot, ok := vm.shadow.shadowSlot(va); ok {
		_ = k.Mem.StoreLong(slot, uint32(spte))
	}
	k.CPU.MMU.TBIS(va)
	return true
}

// handleModifyFault services the modify fault of Section 4.4.2
// through cowModifyFault, the one modify-fault path.
func (k *VMM) handleModifyFault(vm *VM, e *vax.Exception) {
	va := e.Params[1]
	vm.Stats.ModifyFaults++
	if vm.rec != nil {
		vm.rec.Record(trace.EvModifyFault, k.CPU.Cycles, k.CPU.PC(), va)
	}
	k.charge(cpu.CostVMMModifyFault)
	k.cowModifyFault(vm, va)
}

// handleRealInterrupt services interrupts on the real machine — in this
// system only the interval clock, which drives virtual timer delivery,
// uptime maintenance, WAIT timeouts and time slicing. start is the
// CPU cycle count at VMM entry, so tick-wide housekeeping can be
// re-attributed to the VMM bucket instead of the interrupted VM.
func (k *VMM) handleRealInterrupt(e *vax.Exception, start uint64) {
	c := k.CPU
	if e.Vector != vax.VecClock {
		return // no other real devices interrupt in this configuration
	}
	// Acknowledge the interval timer.
	_ = c.WriteIPR(vax.IPRICCS, vax.ICCSInt|vax.ICCSRun|vax.ICCSIE)
	k.Stats.ClockTicks++

	entry := k.Current()
	cur := entry
	if cur != nil && !cur.halted {
		// Timer interrupts are delivered only while the VM is actually
		// running (Section 5, "Time") ...
		cur.ticks++
		if cur.clockOn && cur.clockIE {
			cur.postIRQ(vax.IPLClock, vax.VecClock)
		}
	}
	// ... which is precisely why counting them is not a clock: "the VMM
	// maintains system up time and stores it into the VMOS's memory.
	// Therefore the VMOS code should read this time rather than
	// computing it." The cell carries real uptime for every VM,
	// running, waiting or preempted.
	for _, vm := range k.vms {
		if !vm.halted && vm.uptime != 0 {
			vm.writePhys(vm.uptime, uint32(k.Stats.ClockTicks))
		}
	}
	// Wake WAITing VMs whose timeout expired or that have work.
	for _, vm := range k.vms {
		vm.drainExternalIRQs()
		if vm.waiting && (vm.pendingAbove(0) > 0 || k.Stats.ClockTicks >= vm.waitDeadline) {
			vm.waiting = false
		}
	}

	// VMM hardening hooks: scheduled fault injection, the periodic
	// shadow-table scrub, and the per-VM watchdog. Injection or the
	// watchdog may halt the current VM (and reschedule), so refresh it.
	if k.faults != nil {
		k.injectTick()
	}
	if k.cfg.SelfCheckInterval > 0 && k.Stats.ClockTicks%k.cfg.SelfCheckInterval == 0 {
		k.SelfCheck()
	}
	// Supervisor hooks, still inside the reattribution window below so
	// recovery and checkpoint work lands in the VMM bucket: bring back
	// VMs that died recoverably since the last tick, then take any due
	// periodic checkpoint of the running VM.
	if k.cfg.Recover {
		k.recoverPending()
	}
	cur = k.Current()
	if k.cfg.CheckpointEvery > 0 {
		k.maybeCheckpoint(cur)
	}
	if k.checkWatchdog(cur) {
		return // haltVM already scheduled a neighbor
	}

	// Everything from VMM entry to here — timer ack, uptime cells, wake
	// scans, injection, self-check, the watchdog — served the whole
	// machine. Move its cost off the interrupted VM's account into the
	// VMM bucket before deciding what runs next, so per-VM CyclesUsed
	// reflects only work done for that VM. (cur == entry implies no
	// world switch happened above, so resumeCycles is still the value
	// it had when start was captured and the adjustment cannot push it
	// past the current cycle count.)
	if cur != nil && cur == entry {
		delta := c.Cycles - start
		cur.resumeCycles += delta
		k.vmmCycles += delta
	}

	switch {
	case cur == nil || cur.halted:
		k.scheduleNext()
	case k.Stats.ClockTicks%timeSlice == 0:
		k.scheduleNext()
	default:
		k.resumeVM(cur)
		k.deliverPendingIRQs(cur)
	}
}
