package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/vax"
)

// COW cloning: boot one source VM, then stamp out clones in microseconds
// by sharing every physical page of the source instead of copying its
// memory image. The mechanics ride the existing modify-fault machinery
// (Section 4.4.2): a shared frame is never mapped writable — the shadow
// M bit is held clear (or, under the read-only-shadow scheme, the
// protection is demoted) — so the first guest store takes a fault, and
// cowBreak privatizes the page: allocate, copy, remap, resume. The
// per-frame refcounts live in mem.PageRefs on vmmShared; the frame
// indirection is VM.frames, which every VM has from CreateVM on.
//
// Invariants:
//   - A frame with refcount > 1 is never written through any path: the
//     shadow tables fault guest stores, and every VMM-side writer
//     (writePhys, device DMA, restore) breaks sharing first.
//   - A page is copied before its reference is dropped, so a frame's
//     count reaches zero only after every holder has stopped reading it
//     (the atomics order the copy before the last drop).
//   - SharedPages + PrivatePages == the VM's page count for every VM
//     (CreateVM counts every page private); cowMask moves each page
//     between the gauges exactly once per transition.

// cowMaskAll returns a mask with one bit set per page: every page
// counted shared.
func cowMaskAll(pages uint32) []uint64 {
	mask := make([]uint64, (pages+63)/64)
	for i := range mask {
		mask[i] = ^uint64(0)
	}
	if r := pages % 64; r != 0 {
		mask[len(mask)-1] = (uint64(1) << r) - 1
	}
	return mask
}

// cowNotePrivate moves page pfn from the SharedPages gauge to
// PrivatePages, once.
func (vm *VM) cowNotePrivate(pfn uint32) {
	w, b := pfn/64, uint64(1)<<(pfn%64)
	if int(w) < len(vm.cowMask) && vm.cowMask[w]&b != 0 {
		vm.cowMask[w] &^= b
		vm.Stats.SharedPages--
		vm.Stats.PrivatePages++
	}
}

// Clone creates a new VM sharing every physical page of src — memory,
// disk and machine state are the source's exact current state, captured
// without suspending it. The cost is the clone's own shadow tables plus
// a refcount bump per page; the ~64 KB–8 MB memory copy of a full boot
// is deferred to cowBreak, page by page, and never happens for pages
// the clone only reads. Call on the root monitor while no run is in
// flight. src may itself be a clone.
func (k *VMM) Clone(src *VM, name string) (*VM, error) {
	if k.parent != nil {
		return nil, fmt.Errorf("vmm: Clone must be called on the root monitor")
	}
	if src == nil || src.k != k {
		return nil, fmt.Errorf("vmm: clone source belongs to another monitor")
	}
	if src.halted {
		return nil, fmt.Errorf("vmm: cannot clone a halted VM (%s)", src.haltMsg)
	}
	pages := src.MemSize / vax.PageSize
	k.captureLive(src)

	k.shared.mu.Lock()
	if k.shared.refs == nil {
		k.shared.refs = mem.NewPageRefs(k.Mem.Pages())
	}
	refs := k.shared.refs
	k.shared.mu.Unlock()

	frames := make([]uint32, pages)
	copy(frames, src.frames)
	for _, f := range frames {
		refs.Share(f)
	}
	src.cowMask = cowMaskAll(pages)
	src.Stats.SharedPages = uint64(pages)
	src.Stats.PrivatePages = 0
	if !src.cowClean {
		if err := k.cowDemote(src); err != nil {
			return nil, err
		}
	}

	vm := &VM{
		ID:       k.nextID,
		name:     name,
		MemSize:  src.MemSize,
		frames:   frames,
		cowMask:  cowMaskAll(pages),
		cowClean: true,
		k:        k,
	}
	if vm.name == "" {
		vm.name = defaultVMName(vm.ID)
	}
	// Shadow tables are deliberately NOT built here: they are a cache,
	// and ensureShadow builds them at the clone's first dispatch. A
	// clone that never runs costs no table pages, and under the parallel
	// engine the ~30 KB table build lands on the worker shard that runs
	// the clone instead of serializing the clone loop.

	// Virtual processor state: the clone resumes from the source's
	// exact machine state (captureLive refreshed it above).
	vm.regs = src.regs
	vm.pc = src.pc
	vm.pslLow = src.pslLow
	vm.vmpsl = src.vmpsl
	vm.SPs = src.SPs
	vm.ISP = src.ISP
	vm.scbb = src.scbb
	vm.pcbb = src.pcbb
	vm.p0br, vm.p0lr = src.p0br, src.p0lr
	vm.p1br, vm.p1lr = src.p1br, src.p1lr
	vm.sbr, vm.slr = src.sbr, src.slr
	vm.mapen = src.mapen
	vm.sisr = src.sisr
	vm.astlvl = src.astlvl
	vm.clockOn = src.clockOn
	vm.clockIE = src.clockIE
	vm.ticks = src.ticks
	vm.uptime = src.uptime
	vm.pendingIRQ = src.pendingIRQ
	vm.waiting = src.waiting
	vm.waitDeadline = src.waitDeadline
	vm.lastProgress = vm.ticks
	vm.disk = src.disk.clone()
	vm.Stats.SharedPages = uint64(pages)

	k.nextID++
	k.vms = append(k.vms, vm)
	if k.rec != nil {
		vm.rec = k.rec.VM(vm.ID, vm.name)
		k.event(vm, trace.EvVMCreated, 0, fmt.Sprintf("cloned from %s (%d shared pages)", src.name, pages))
	}
	return vm, nil
}

// ensureShadow builds a VM's shadow tables on first dispatch; Clone
// defers them (see the comment there). Reports false when the monitor
// is out of physical memory, in which case the VM is halted and must
// not be resumed.
func (k *VMM) ensureShadow(vm *VM) bool {
	if vm.shadow != nil {
		return true
	}
	s, err := k.newShadowSpace(vm)
	if err != nil {
		vm.halted = true
		vm.haltMsg = "out of physical memory building shadow tables"
		vm.haltCycles = k.CPU.Cycles
		k.event(vm, trace.EvVMHalted, 0, vm.haltMsg)
		return false
	}
	vm.shadow = s
	if vm.mapen && vm.p0br != 0 {
		// Seed the fresh cache with the current process, exactly as a
		// checkpoint restore does: slot 0 claims the P0 base and demand
		// fills repopulate it.
		s.slotOwner[0] = vm.p0br
	}
	return true
}

// cowDemote strips every writable mapping from a VM's shadow tables
// so newly shared frames cannot be stored to without a fault: the
// process slots, P1 and S shadows reset to null PTEs (they refill on
// demand, and the shadow-PTE rule holds M clear on shared frames), and
// the identity table is rebuilt the same way. Runs once per
// clone-burst: the first Clone after the VM installed a writable
// mapping pays it, subsequent Clones see cowClean and skip it.
func (k *VMM) cowDemote(vm *VM) error {
	s := vm.shadow
	if s == nil {
		// Never dispatched: no shadow tables exist, so no writable
		// mapping exists either — the demotion is trivially complete.
		vm.cowClean = true
		return nil
	}
	for i := range s.slotPhys {
		if err := s.clearSlot(k, i); err != nil {
			return err
		}
		s.slotOwner[i] = 0
		s.slotLRU[i] = 0
	}
	if err := s.clearP1(k); err != nil {
		return err
	}
	if err := s.clearSRegion(k); err != nil {
		return err
	}
	s.active = 0
	if vm.mapen {
		s.slotOwner[0] = vm.p0br
	}
	if err := s.buildIdentity(k); err != nil {
		return err
	}
	vm.cowClean = true
	if k.Current() == vm {
		s.activate(k.CPU)
	}
	k.CPU.MMU.TBIA()
	return nil
}

// cowBreak privatizes VM-physical page pfn of vm if its frame is
// shared: allocate a fresh page, copy the shared frame, drop our
// reference (recycling the frame if we were the last holder — a
// concurrent break on another shard may have released the other
// reference first), remap, and sweep every stale mapping of the old
// frame out of this VM's shadow tables. Reports false when the VM
// halted (out of physical memory). A frame that is not (or no longer)
// shared only has its gauges settled: the caller still owns installing
// a writable mapping.
func (k *VMM) cowBreak(vm *VM, pfn uint32) bool {
	old := vm.frames[pfn]
	if !k.cowShared(old) {
		vm.cowNotePrivate(pfn)
		return true
	}
	start := k.CPU.Cycles
	page, err := k.allocRun(1)
	if err != nil {
		k.haltVM(vm, "out of physical memory during copy-on-write break")
		return false
	}
	// Copy before dropping the reference: the frame's count must reach
	// zero only after every holder's copy is complete.
	if err := k.Mem.CopyPage(page, old); err != nil {
		k.haltVM(vm, err.Error())
		return false
	}
	if k.shared.refs.Drop(old) {
		k.freeRun(old, 1)
	}
	vm.frames[pfn] = page
	vm.cowClean = false
	vm.cowNotePrivate(pfn)
	vm.Stats.COWBreaks++
	// The new page may carry stale cached decodes from a recycled run;
	// the old frame's decodes stay valid for its remaining holders (the
	// decode cache is keyed by physical page, and
	// this VM can no longer fetch from the old frame).
	k.CPU.InvalidateDecode(page*vax.PageSize, vax.PageSize)
	k.cowSweep(vm, old)
	if vm.shadow != nil {
		_ = k.Mem.StoreLong(vm.shadow.identPhys+4*pfn,
			uint32(vax.NewPTE(true, vax.ProtUW, true, page)))
	}
	k.CPU.MMU.TBIA()
	k.charge(cpu.CostVMMCowBreak)
	if vm.rec != nil {
		vm.rec.Record(trace.EvCowBreak, start, k.CPU.PC(), pfn)
		vm.rec.Observe(trace.LatCowBreak, k.CPU.Cycles-start)
	}
	return true
}

// cowSweep nulls every shadow PTE of vm that still maps the given real
// frame. The breaking VA's own slot is rewritten by the caller, but a
// guest may map one VM-physical page at several virtual addresses (and
// cached process slots keep translations for processes not currently
// running); a stale alias would keep reading the old frame, which may
// later be recycled. The identity table needs no sweep: frames are
// distinct within one VM, so only the entry the caller rewrites maps
// the frame.
func (k *VMM) cowSweep(vm *VM, frame uint32) {
	s := vm.shadow
	if s == nil {
		// A VMM-side write (DMA, writePhys) broke the page before the
		// clone ever ran: no shadow tables, so no stale mapping to sweep.
		return
	}
	sweep := func(phys, ptes uint32) {
		win, err := k.Mem.Window(phys, ptes*4)
		if err != nil {
			return
		}
		for off := 0; off < len(win); off += 4 {
			pte := vax.PTE(binary.LittleEndian.Uint32(win[off:]))
			if pte.Valid() && pte.PFN() == frame {
				binary.LittleEndian.PutUint32(win[off:], uint32(nullPTE))
			}
		}
	}
	sweep(s.sptPhys, VMSLimitPTEs)
	for _, slot := range s.slotPhys {
		sweep(slot, ProcTablePTEs)
	}
	sweep(s.p1Phys, P1TablePTEs)
}

// cowModifyFault services every modify fault (Section 4.4.2): set PTE<M>
// in the shadow and the VM's page table, then retry the write. The
// faulting page may be a shared frame taking its first store, so it is
// COW-broken before the write is allowed through. A break's alias
// sweep nulls the faulting slot, so a fresh fully-writable PTE is
// installed rather than upgrading in place.
func (k *VMM) cowModifyFault(vm *VM, va uint32) {
	vm.cowClean = false
	if !vm.mapen {
		// MAPEN off: the reference went through the identity table, so
		// the shadow entry lives there — shadowSlot would mis-target the
		// process slot for a P0 address.
		pfn := vax.VPN(va)
		if pfn >= uint32(len(vm.frames)) {
			k.haltNonexistent(vm, pfn)
			return
		}
		if !k.cowBreak(vm, pfn) {
			return
		}
		_ = k.Mem.StoreLong(vm.shadow.identPhys+4*pfn,
			uint32(vax.NewPTE(true, vax.ProtUW, true, vm.frames[pfn])))
		k.CPU.MMU.TBIS(va)
		k.resumeVM(vm)
		return
	}
	gpte, gf := k.guestPTE(vm, va, true)
	if vm.halted {
		return
	}
	_, m := k.shadowPTEFor(vm, gpte, k.cfg.ReadOnlyShadow)
	switch {
	case gf == nil && m == noMapNonexistent:
		k.haltNonexistent(vm, gpte.PFN())
		return
	case gf != nil || m != mapped:
		// The guest's tables changed without a TBIS and no longer map
		// va. Drop the stale shadow entry — left in place, its clear M
		// bit would fault the retry here forever — so the retry
		// resolves the new state through the demand fill.
		vm.shadow.invalidate(k, va)
		k.resumeVM(vm)
		return
	}
	if !k.cowBreak(vm, gpte.PFN()) {
		return
	}
	spte, _ := k.shadowPTEFor(vm, gpte.WithModify(true), k.cfg.ReadOnlyShadow)
	if slot, ok := vm.shadow.shadowSlot(va); ok {
		_ = k.Mem.StoreLong(slot, uint32(spte))
	}
	k.setGuestPTEModify(vm, va)
	k.CPU.MMU.TBIS(va)
	k.resumeVM(vm)
}

// cowPrivatize rebinds every still-shared frame of vm to a fresh
// private page without copying: the caller (checkpoint restore) is
// about to overwrite the VM's entire memory image, so only the frame
// identity matters, not the contents.
func (k *VMM) cowPrivatize(vm *VM) error {
	refs := k.shared.refs
	for i := range vm.frames {
		old := vm.frames[i]
		if refs == nil || !refs.Shared(old) {
			vm.cowNotePrivate(uint32(i))
			continue
		}
		page, err := k.allocRun(1)
		if err != nil {
			return err
		}
		if refs.Drop(old) {
			k.freeRun(old, 1)
		}
		vm.frames[i] = page
		vm.cowNotePrivate(uint32(i))
	}
	vm.cowClean = false
	return nil
}
