package core

import (
	"encoding/binary"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/vax"
)

// guestFault describes an exception the VMM reflects into the VM
// through the VM's own SCB.
type guestFault struct {
	vec    vax.Vector
	params []uint32
}

// The guest-fault constructors recycle a per-VM scratch cell (vm.gf /
// vm.gfParams) instead of allocating: reflecting a fault is the VMM's
// hottest slow path, and every fault carries at most two parameter
// longwords. The same convention as the CPU's exception scratch
// applies — a *guestFault is consumed synchronously (reflect or
// deliverToVM) before the next fault can be constructed, and is never
// retained. deliverToVM's failure path returns without re-reading the
// parameters, so a nested fault taken while pushing them is safe.

// gfSet recycles the VM's guest-fault cell with no parameters.
func (vm *VM) gfSet(vec vax.Vector) *guestFault {
	vm.gf = guestFault{vec: vec}
	return &vm.gf
}

// gfSet2 recycles the VM's guest-fault cell with the fault parameter /
// faulting VA pair of the memory-management vectors.
func (vm *VM) gfSet2(vec vax.Vector, p0, p1 uint32) *guestFault {
	vm.gfParams[0], vm.gfParams[1] = p0, p1
	vm.gf = guestFault{vec: vec, params: vm.gfParams[:2]}
	return &vm.gf
}

// gfCopy recycles the cell with a copy of an exception's parameters
// (which may be backed by the MMU's own scratch storage). Parameter
// lists beyond the scratch capacity fall back to the heap and are
// counted, documenting the zero-alloc invariant.
func (vm *VM) gfCopy(vec vax.Vector, params []uint32) *guestFault {
	if len(params) > len(vm.gfParams) {
		vm.Stats.SlowPathAllocs++
		return &guestFault{vec: vec, params: append([]uint32(nil), params...)}
	}
	n := copy(vm.gfParams[:], params)
	vm.gf = guestFault{vec: vec, params: vm.gfParams[:n]}
	return &vm.gf
}

func (vm *VM) avFault(va uint32, write, length bool) *guestFault {
	p := uint32(0)
	if write {
		p |= vax.FaultParamWrite
	}
	if length {
		p |= vax.FaultParamLength
	}
	return vm.gfSet2(vax.VecAccessViol, p, va)
}

func (vm *VM) avFaultPTE(va uint32, write bool) *guestFault {
	p := vax.FaultParamPTERef | vax.FaultParamLength
	if write {
		p |= vax.FaultParamWrite
	}
	return vm.gfSet2(vax.VecAccessViol, p, va)
}

func (vm *VM) tnvFaultG(va uint32, write bool) *guestFault {
	p := uint32(0)
	if write {
		p |= vax.FaultParamWrite
	}
	return vm.gfSet2(vax.VecTransNotValid, p, va)
}

func (vm *VM) tnvFaultPTE(va uint32, write bool) *guestFault {
	p := vax.FaultParamPTERef
	if write {
		p |= vax.FaultParamWrite
	}
	return vm.gfSet2(vax.VecTransNotValid, p, va)
}

func (vm *VM) rsvdOperandFault() *guestFault {
	return vm.gfSet(vax.VecRsvdOperand)
}

// guestTranslate resolves a guest virtual address to a VM-physical
// address by walking the VM's own tables, checking the (uncompressed)
// guest protection for mode.
func (k *VMM) guestTranslate(vm *VM, va uint32, write bool, mode vax.Mode) (uint32, *guestFault) {
	if !vm.mapen {
		return va, nil
	}
	gpte, gf := k.guestPTE(vm, va, write)
	if gf != nil {
		return 0, gf
	}
	if vm.halted {
		return 0, nil
	}
	prot := gpte.Prot()
	if prot.Reserved() {
		return 0, vm.avFault(va, write, false)
	}
	allowed := prot.CanRead(mode)
	if write {
		allowed = prot.CanWrite(mode)
	}
	if !allowed {
		return 0, vm.avFault(va, write, false)
	}
	if !gpte.Valid() {
		return 0, vm.tnvFaultG(va, write)
	}
	if write && !gpte.Modified() {
		// A VMM write on the guest's behalf sets PTE<M>, as hardware
		// would from the guest's point of view.
		k.setGuestPTEModify(vm, va)
	}
	return gpte.PFN()*vax.PageSize + (va & vax.PageMask), nil
}

// translateLong translates the guest-virtual longword at va for mode,
// page by page: pa is the VM-physical address of its first n bytes
// and, when the longword straddles a page boundary (n < 4), pa2 that of
// the rest, which lies on its own page and so in its own frame. The
// fault of the first bad page is returned.
func (k *VMM) translateLong(vm *VM, va uint32, write bool, mode vax.Mode) (pa, pa2, n uint32, gf *guestFault) {
	pa, gf = k.guestTranslate(vm, va, write, mode)
	n = min(vax.PageSize-va&vax.PageMask, 4)
	if gf != nil || vm.halted || n == 4 {
		return pa, 0, n, gf
	}
	pa2, gf = k.guestTranslate(vm, va+n, write, mode)
	return pa, pa2, n, gf
}

// guestRead reads a guest-virtual longword as the given guest mode.
func (k *VMM) guestRead(vm *VM, va uint32, mode vax.Mode) (uint32, *guestFault) {
	pa, pa2, n, gf := k.translateLong(vm, va, false, mode)
	if gf != nil || vm.halted {
		return 0, gf
	}
	var v uint32
	var ok bool
	if n == 4 {
		v, ok = vm.readPhys(pa)
	} else {
		var b [4]byte
		ok = vm.dmaRead(pa, b[:n]) == nil && vm.dmaRead(pa2, b[n:]) == nil
		v = binary.LittleEndian.Uint32(b[:])
	}
	if !ok {
		k.haltVM(vm, "guest read of nonexistent memory")
		return 0, nil
	}
	return v, nil
}

// guestWrite writes a guest-virtual longword as the given guest mode.
func (k *VMM) guestWrite(vm *VM, va uint32, v uint32, mode vax.Mode) *guestFault {
	pa, pa2, n, gf := k.translateLong(vm, va, true, mode)
	if gf != nil || vm.halted {
		return gf
	}
	var ok bool
	if n == 4 {
		ok = vm.writePhys(pa, v)
	} else {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		ok = vm.dmaWrite(pa, b[:n]) == nil && vm.dmaWrite(pa2, b[n:]) == nil
	}
	if !ok {
		k.haltVM(vm, "guest write of nonexistent memory")
	}
	return nil
}

// deliverToVM transfers control to the VM's handler for vec, pushing
// params, pc and the VM's composite PSL on the stack the VM's SCB entry
// selects — the software half of forwarding CHM exceptions, reflected
// faults and virtual interrupts (Sections 4.2.2, 4.2.3, 5).
//
// newMode is the guest mode the handler runs in (kernel for everything
// but CHM); newIPL, when non-negative, raises the guest IPL (interrupt
// delivery).
func (k *VMM) deliverToVM(vm *VM, vec vax.Vector, params []uint32, pc uint32,
	newMode vax.Mode, newIPL int) {
	c := k.CPU
	scbLong, ok := vm.readPhys(vm.scbb + uint32(vec))
	if !ok {
		k.haltVM(vm, "VM SCB outside VM memory")
		return
	}
	handler := scbLong &^ 3
	useIS := scbLong&1 == 1 && newMode == vax.Kernel
	if handler == 0 {
		// A machine check the guest never wired a handler for is a
		// recoverable death: the error is external to the checkpointed
		// state, so the supervisor may roll the VM back. Every other
		// missing handler is the guest's own structural bug.
		cause := haltFatal
		if vec == vax.VecMachineCheck {
			cause = haltNoHandler
		}
		k.haltVMCause(vm, "VM has no handler for "+vec.String(), cause)
		return
	}

	oldPSL := c.GuestPSL()
	k.saveGuestSP(vm)

	newPSL := vax.PSL(0).WithCur(newMode).WithPrv(oldPSL.Cur()).WithIPL(oldPSL.IPL())
	if newIPL >= 0 {
		newPSL = newPSL.WithIPL(uint8(newIPL))
	}
	sp := vm.SPs[newMode]
	if useIS {
		sp = vm.ISP
		newPSL = vax.PSL(uint32(newPSL) | vax.PSLIS)
	}

	push := func(v uint32) bool {
		sp -= 4
		if gf := k.guestWrite(vm, sp, v, newMode); gf != nil {
			k.haltVM(vm, "VM stack not valid during exception delivery")
			return false
		}
		return !vm.halted
	}
	if !push(uint32(oldPSL)) || !push(pc) {
		return
	}
	for i := len(params) - 1; i >= 0; i-- {
		if !push(params[i]) {
			return
		}
	}

	// Install the new guest context.
	c.VMPSL = newPSL
	real := vax.PSL(0).
		WithCur(compressMode(newPSL.Cur())).
		WithPrv(compressMode(newPSL.Prv())).
		WithVM(true)
	c.SetPSL(real)
	c.SetSP(sp)
	c.SetPC(handler)
	k.Stats.ReflectedTraps++
	k.charge(cpu.CostVMMInterrupt)
}

// reflect forwards a guest fault into the VM at the current PC.
func (k *VMM) reflect(vm *VM, gf *guestFault) {
	if gf == nil || vm.halted {
		return
	}
	vm.Stats.ReflectedFaults++
	if vm.rec != nil {
		vm.rec.Record(trace.EvReflected, k.CPU.Cycles, k.CPU.PC(), uint32(gf.vec))
	}
	k.deliverToVM(vm, gf.vec, gf.params, k.CPU.PC(), vax.Kernel, -1)
}

// deliverPendingIRQs delivers the highest pending virtual interrupt to
// the (current) VM if its IPL admits it. One delivery is enough: the
// guest's REI path re-enters the VMM, which scans again.
func (k *VMM) deliverPendingIRQs(vm *VM) {
	if vm.halted || k.Current() != vm {
		return
	}
	vm.drainExternalIRQs()
	// Injected clock-interrupt storm: the timer line "sticks" and the
	// VM sees a clock interrupt at every delivery opportunity while the
	// storm window is open. Bounded: handling the interrupts advances
	// real time past the window.
	if k.faults != nil && k.faults.StormHit(vm.ID, k.Stats.ClockTicks) {
		vm.postIRQ(vax.IPLClock, vax.VecClock)
	}
	level := vm.pendingAbove(k.CPU.VMPSL.IPL())
	if level == 0 {
		return
	}
	var vec vax.Vector
	if vm.pendingIRQ[level] != 0 {
		vec = vm.pendingIRQ[level]
		vm.pendingIRQ[level] = 0
	} else {
		vec = vax.SoftwareVector(level)
		vm.sisr &^= 1 << level
	}
	vm.Stats.VirtualIRQs++
	k.Stats.VirtualIRQs++
	if vm.rec != nil {
		vm.rec.Record(trace.EvVirtualIRQ, k.CPU.Cycles, k.CPU.PC(), uint32(vec))
		if vm.kcallPending && vec == vax.VecDisk {
			vm.kcallPending = false
			vm.rec.Observe(trace.LatKCall, k.CPU.Cycles-vm.kcallStart)
		}
	}
	k.deliverToVM(vm, vec, nil, k.CPU.PC(), vax.Kernel, int(level))
}
