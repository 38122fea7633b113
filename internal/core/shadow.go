package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/vax"
)

// Shadow page tables (Section 4.3.1). For each VM the VMM owns a real
// system page table laid out as:
//
//	S VPN 0 .. VMSLimitPTEs-1      shadow of the VM's system page table
//	                               (null PTEs until demand-filled)
//	S VPN VMSLimitPTEs ..          the VMM's private region "above an
//	                               installation-defined boundary"
//	                               (Figure 2): the cached shadow P0
//	                               tables, the shadow P1 table, and the
//	                               identity map used while the VM runs
//	                               with memory management disabled.
//
// The private region is protected KW, so only real kernel mode — the
// VMM itself — can touch it; the VM, running at executive mode or
// below, cannot (footnote 4 of the paper: the VMM's shadow process
// page tables must live in the shared virtual address space).
//
// Each shadow table the VM's references go through — the S shadow,
// every cached P0 slot and P1 — keeps the span of its entries that may
// be valid. Tables start null and fill on demand, so a span is a small
// part of its table. install, the one store of a valid shadow PTE,
// widens it; a clear empties it. Outside its span a table therefore
// holds only invalid entries, and cowSweep reads the spans alone.
type shadowSpace struct {
	vm *VM

	spt     shadowTable // the real SPT; its span covers the VM S shadow
	realSLR uint32      // total length of the real SPT in PTEs

	// Shadow P0 table slots (the multi-process cache of Section 7.2).
	slots    []procSlot
	active   int // slot currently wired into real P0BR
	lruClock uint64

	p1                 shadowTable // single shadow P1 table
	p1VA               uint32      // S-space virtual address of the P1 table
	identPhys, identVA uint32      // identity P0 table for MAPEN=0
	identPTEs          uint32

	// runs records every page run backing these tables {page, pages},
	// so releaseRuns can park them in the shared pool when the VM
	// halts; released guards double release.
	runs     [][2]uint32
	released bool
}

// shadowTable is one shadow page table in real memory and the span
// [lo, hi) of its entries written valid since its last clear.
type shadowTable struct {
	phys   uint32 // real physical address of entry 0
	lo, hi uint32 // the span; empty when hi == 0
}

// procSlot is one cached shadow P0 table.
type procSlot struct {
	shadowTable
	va    uint32 // S-space virtual address of the table
	owner uint32 // VM P0BR value cached in the slot; 0 = free
	lru   uint64 // last-use stamp
}

// widen grows the span to cover entry i.
func (t *shadowTable) widen(i uint32) {
	if t.hi == 0 || i < t.lo {
		t.lo = i
	}
	if i >= t.hi {
		t.hi = i + 1
	}
}

// clear resets the table's first n entries to the null PTE and empties
// its span.
func (t *shadowTable) clear(k *VMM, n uint32) error {
	if err := k.Mem.FillLong(t.phys, n, uint32(nullPTE)); err != nil {
		return err
	}
	t.lo, t.hi = 0, 0
	return nil
}

// span returns the table's entries in its span, as bytes of real
// memory.
func (t *shadowTable) span(k *VMM) []byte {
	win, err := k.Mem.Window(t.phys+4*t.lo, 4*(t.hi-t.lo))
	if err != nil {
		return nil
	}
	return win
}

// newShadowSpace allocates and wires a VM's shadow tables. A build
// refused part-way (out of physical memory) parks every run it already
// carved back in the pool, so a failed build holds no pages.
func (k *VMM) newShadowSpace(vm *VM) (_ *shadowSpace, err error) {
	slots := k.cfg.ShadowCacheSlots
	s := &shadowSpace{
		vm:    vm,
		slots: make([]procSlot, slots),
		runs:  make([][2]uint32, 0, slots+3), // SPT, slots, P1, identity
	}
	defer func() {
		if err != nil {
			s.releaseRuns(k)
		}
	}()

	vmPages := vm.MemSize / vax.PageSize
	s.identPTEs = vmPages
	identPages := (s.identPTEs*4 + vax.PageSize - 1) / vax.PageSize

	vmmRegionPages := uint32(slots)*procSlotPages + p1TablePages + identPages
	s.realSLR = VMSLimitPTEs + vmmRegionPages
	sptPages := (s.realSLR*4 + vax.PageSize - 1) / vax.PageSize

	sptPage, err := k.allocRun(sptPages)
	if err != nil {
		return nil, err
	}
	s.runs = append(s.runs, [2]uint32{sptPage, sptPages})
	s.spt.phys = sptPage * vax.PageSize

	// Null-initialize the whole SPT run (clear-on-reuse: a pooled run
	// carries the previous owner's PTEs). The private-region PTEs are
	// written over the tail below.
	if err := k.Mem.FillLong(s.spt.phys, sptPages*vax.PageSize/4, uint32(nullPTE)); err != nil {
		return nil, err
	}

	// Allocate the private-region structures and map them KW in the
	// real SPT.
	vpn := uint32(VMSLimitPTEs)
	mapRegion := func(pages uint32) (phys uint32, va uint32, err error) {
		page, err := k.allocRun(pages)
		if err != nil {
			return 0, 0, err
		}
		s.runs = append(s.runs, [2]uint32{page, pages})
		// Clear-on-reuse: restore the null-PTE default over the run
		// before it is wired anywhere.
		if err := k.Mem.FillLong(page*vax.PageSize, pages*vax.PageSize/4, uint32(nullPTE)); err != nil {
			return 0, 0, err
		}
		va = vax.SystemBase + vpn*vax.PageSize
		for i := uint32(0); i < pages; i++ {
			pte := vax.NewPTE(true, vax.ProtKW, true, page+i)
			if err := k.Mem.StoreLong(s.spt.phys+4*vpn, uint32(pte)); err != nil {
				return 0, 0, err
			}
			vpn++
		}
		return page * vax.PageSize, va, nil
	}

	// mapRegion already null-filled the slot and P1 runs; clearing them
	// again here would double the host-side table-initialization cost
	// that dominates VM creation and cloning. The *simulated* cost and
	// the ShadowClears count stay exactly what clearSlot would have
	// charged per slot, so guest-visible cycle totals are unchanged.
	for i := range s.slots {
		if s.slots[i].phys, s.slots[i].va, err = mapRegion(procSlotPages); err != nil {
			return nil, err
		}
		vm.Stats.ShadowClears++
		k.CPU.AddCycles(uint64(ProcTablePTEs) / 8)
	}
	if s.p1.phys, s.p1VA, err = mapRegion(p1TablePages); err != nil {
		return nil, err
	}
	if s.identPhys, s.identVA, err = mapRegion(identPages); err != nil {
		return nil, err
	}
	if err := s.buildIdentity(k); err != nil {
		return nil, err
	}
	return s, nil
}

// buildIdentity (re)writes the identity P0 table for MAPEN=0: VM-
// physical page j at its real frame, all modes. A private frame's entry
// is premodified (no M-bit tracking while the VM runs unmapped); a
// shared frame is mapped with M clear so the first unmapped store takes
// a modify fault and COW-breaks (clone.go rewrites the entry when the
// frame privatizes).
func (s *shadowSpace) buildIdentity(k *VMM) error {
	for j := uint32(0); j < s.identPTEs; j++ {
		f := s.vm.frames[j]
		pte := vax.NewPTE(true, vax.ProtUW, !k.cowShared(f), f)
		if err := k.Mem.StoreLong(s.identPhys+4*j, uint32(pte)); err != nil {
			return err
		}
	}
	return nil
}

// clearSlot resets a shadow P0 table to null PTEs. The host-side bulk
// fill replaces a 2048-iteration store loop; the simulated cost charged
// is unchanged.
func (s *shadowSpace) clearSlot(k *VMM, slot int) error {
	if err := s.slots[slot].clear(k, ProcTablePTEs); err != nil {
		return err
	}
	s.vm.Stats.ShadowClears++
	k.CPU.AddCycles(uint64(ProcTablePTEs) / 8) // bulk clear cost
	return nil
}

func (s *shadowSpace) clearP1(k *VMM) error {
	return s.p1.clear(k, P1TablePTEs)
}

// clearSRegion resets the VM S shadow to null PTEs (SBR/SLR change or
// guest TBIA).
func (s *shadowSpace) clearSRegion(k *VMM) error {
	if err := s.spt.clear(k, VMSLimitPTEs); err != nil {
		return err
	}
	s.vm.Stats.ShadowClears++
	k.CPU.AddCycles(uint64(VMSLimitPTEs) / 8)
	return nil
}

// reset empties every shadow table the VM's references go through,
// seeds slot 0 with the VM's current process and rebuilds the identity
// table over the VM's current frames: the shadow a COW demotion or an
// in-place restore leaves, refilled on demand from then on.
func (s *shadowSpace) reset(k *VMM) error {
	for i := range s.slots {
		if err := s.clearSlot(k, i); err != nil {
			return err
		}
		s.slots[i].owner, s.slots[i].lru = 0, 0
	}
	if err := s.clearP1(k); err != nil {
		return err
	}
	if err := s.clearSRegion(k); err != nil {
		return err
	}
	s.active = 0
	if s.vm.mapen {
		s.slots[0].owner = s.vm.p0br
	}
	return s.buildIdentity(k)
}

// releaseRuns parks every page run backing these tables in the shared
// pool. Called when the VM halts for good; idempotent.
func (s *shadowSpace) releaseRuns(k *VMM) {
	if s.released {
		return
	}
	s.released = true
	for _, r := range s.runs {
		k.freeRun(r[0], r[1])
	}
}

// activate wires this VM's shadow tables into the real mapping
// registers.
func (s *shadowSpace) activate(c *cpu.CPU) {
	c.MMU.SBR = s.spt.phys
	c.MMU.SLR = s.realSLR
	c.MMU.Enabled = true
	vm := s.vm
	if !vm.mapen {
		// MAPEN off in the VM: identity-map VM-physical space through
		// the prebuilt P0 table; no P1 or VM-S translations exist.
		c.MMU.P0BR = s.identVA
		c.MMU.P0LR = s.identPTEs
		c.MMU.P1BR = s.p1VA
		c.MMU.P1LR = 0
		return
	}
	c.MMU.P0BR = s.slots[s.active].va
	c.MMU.P0LR = min32(vm.p0lr, ProcTablePTEs)
	c.MMU.P1BR = s.p1VA
	c.MMU.P1LR = min32(vm.p1lr, P1TablePTEs)
}

// switchProcess points the shadow machinery at the guest address space
// whose P0 base is p0br, using the multi-process cache when enabled
// (Section 7.2): if a cached shadow table already holds this process's
// translations, its previously valid shadow PTEs survive and the VM
// takes no refill faults for them.
func (s *shadowSpace) switchProcess(k *VMM, p0br uint32) error {
	vm := s.vm
	vm.Stats.ContextSwitches++
	k.noteProgress(vm)
	s.lruClock++
	// Cache lookup.
	for i := range s.slots {
		if owner := s.slots[i].owner; owner == p0br && owner != 0 && len(s.slots) > 1 {
			vm.Stats.CacheHits++
			s.active = i
			s.slots[i].lru = s.lruClock
			s.activate(k.CPU)
			k.CPU.MMU.TBIA()
			return nil
		}
	}
	vm.Stats.CacheMisses++
	// Evict the least recently used slot.
	victim := 0
	for i := range s.slots {
		if s.slots[i].lru < s.slots[victim].lru {
			victim = i
		}
	}
	if err := s.clearSlot(k, victim); err != nil {
		return err
	}
	s.slots[victim].owner = p0br
	s.slots[victim].lru = s.lruClock
	s.active = victim
	s.activate(k.CPU)
	k.CPU.MMU.TBIA()
	return nil
}

// entry locates the shadow PTE covering va: its table and its index
// there, or ok=false if va is outside the shadowed ranges.
func (s *shadowSpace) entry(va uint32) (t *shadowTable, i uint32, ok bool) {
	i = vax.VPN(va)
	switch vax.Region(va) {
	case vax.RegionSystem:
		return &s.spt, i, i < VMSLimitPTEs
	case vax.RegionP0:
		return &s.slots[s.active].shadowTable, i, i < ProcTablePTEs
	case vax.RegionP1:
		return &s.p1, i, i < P1TablePTEs
	}
	return nil, 0, false
}

// install stores a valid shadow PTE for va and widens its table's span.
// It is the one way a valid shadow PTE is written; a va outside the
// shadowed ranges installs nothing.
func (s *shadowSpace) install(k *VMM, va uint32, pte vax.PTE) {
	if t, i, ok := s.entry(va); ok {
		_ = k.Mem.StoreLong(t.phys+4*i, uint32(pte))
		t.widen(i)
	}
}

// invalidate restores the null PTE for the page containing va (guest
// TBIS, or a guest PTE change the VMM observes). The span stays: it
// bounds where valid entries may be, not where they are.
func (s *shadowSpace) invalidate(k *VMM, va uint32) {
	if t, i, ok := s.entry(va); ok {
		_ = k.Mem.StoreLong(t.phys+4*i, uint32(nullPTE))
	}
	k.CPU.MMU.TBIS(va)
}

// fillShadow is the demand fill (Section 4.3.1): walk the VM's tables
// for va once, map the guest PTE through the shadow-PTE rule into the
// shadow slot, then extend the fill with the optional prefetch group.
// It returns the guest fault to reflect when the VM's own tables make
// the reference invalid, or nil on success.
func (k *VMM) fillShadow(vm *VM, va uint32, wantWrite bool) *guestFault {
	var fillStart uint64
	if vm.rec != nil {
		fillStart = k.CPU.Cycles
	}
	if _, _, ok := vm.shadow.entry(va); !ok {
		// Outside the VM's maximum table sizes: length violation.
		return vm.avFault(va, wantWrite, true)
	}
	ptePhys, w := vm.guestWalk(va)
	gpte, gf := k.walkedPTE(vm, va, wantWrite, ptePhys, w)
	if gf != nil || vm.halted {
		return gf
	}
	spte, m := k.shadowPTEFor(vm, gpte, k.cfg.ReadOnlyShadow)
	switch m {
	case noMapReserved:
		return vm.avFault(va, wantWrite, false)
	case noMapInvalid:
		// The VM's page really is invalid: its own operating system
		// must service the page fault.
		return vm.tnvFaultG(va, wantWrite)
	case noMapDevice:
		// Device frames stay unmapped so every register reference
		// traps for emulation (Section 4.4.3's expensive alternative).
		return nil
	case noMapNonexistent:
		k.haltNonexistent(vm, gpte.PFN())
		return nil
	}
	vm.shadow.install(k, va, spte)
	vm.Stats.ShadowFills++
	k.charge(cpu.CostVMMShadowFill)
	k.CPU.MMU.TBIS(va)

	// Optional prefetch of the following PTEs (Section 4.3.1's rejected
	// experiment): each extra fill re-walks the guest tables and costs
	// the same work whether or not the VM ever touches the page.
	for g := 1; g < k.cfg.PrefetchGroup; g++ {
		nva := va + uint32(g)*vax.PageSize
		if vax.Region(nva) != vax.Region(va) {
			break
		}
		if _, _, ok := vm.shadow.entry(nva); !ok {
			break
		}
		nPhys, w := vm.guestWalk(nva)
		if w != walkOK {
			continue
		}
		nv, _ := vm.readPhys(nPhys)
		ns, m := k.shadowPTEFor(vm, vax.PTE(nv), k.cfg.ReadOnlyShadow)
		if m != mapped {
			continue
		}
		vm.shadow.install(k, nva, ns)
		vm.Stats.PrefetchFills++
		k.charge(cpu.CostVMMShadowFill)
	}

	if vm.rec != nil {
		vm.rec.Record(trace.EvShadowFill, fillStart, k.CPU.PC(), va)
		vm.rec.Observe(trace.LatShadowFill, k.CPU.Cycles-fillStart)
	}
	return nil
}

// shadowMap is the verdict of the shadow-PTE rule: a mapping, or the
// reason the guest PTE admits none.
type shadowMap uint8

const (
	mapped           shadowMap = iota
	noMapReserved              // reserved protection code: access violation
	noMapInvalid               // PTE<V> clear: the VM's own page fault
	noMapDevice                // device frame under emulated MMIO: every reference traps
	noMapNonexistent           // frame past the VM's memory: a real reference halts the VM
)

// shadowPTEFor is the one shadow-PTE rule (memory ring compression,
// Section 4.3.1). It maps a guest PTE to the shadow PTE that may stand
// for it — real frame from the VM-physical frame, protection
// ring-compressed — or to the reason no shadow mapping may exist.
// Under the rejected Section 4.4.2 alternative (roScheme), "unmodified"
// is encoded as a write-denying protection with the shadow M bit held
// set so the modify fault never fires.
//
// A shared frame must never be mapped writable without a fault between
// the guest and the store: under the default scheme the shadow M bit
// is held clear so the first write takes a modify fault, and under the
// read-only scheme the protection is demoted so the write takes the
// upgrade path — both land in cowBreak.
func (k *VMM) shadowPTEFor(vm *VM, gpte vax.PTE, roScheme bool) (vax.PTE, shadowMap) {
	pfn := gpte.PFN()
	switch {
	case gpte.Prot().Reserved():
		return nullPTE, noMapReserved
	case !gpte.Valid():
		return nullPTE, noMapInvalid
	case k.cfg.MMIOEmulatedIO && isDeviceFrame(pfn):
		return nullPTE, noMapDevice
	case pfn*vax.PageSize >= vm.MemSize:
		return nullPTE, noMapNonexistent
	}
	prot := gpte.Prot().Compress()
	modified := gpte.Modified()
	if roScheme {
		if !modified {
			prot = prot.ReadOnly()
		}
		modified = true
	}
	frame := vm.frames[pfn]
	if k.cowShared(frame) {
		if roScheme {
			prot = prot.ReadOnly()
		} else {
			modified = false
		}
	} else if modified {
		// Writable mapping of a private frame: a future Clone must
		// demote it before the frame can be re-shared.
		vm.cowClean = false
	}
	return vax.NewPTE(true, prot, modified, frame), mapped
}

// haltNonexistent halts vm for a real reference to a VM-physical page
// past its memory — the one hardware error a VMOS can see (Section 5).
func (k *VMM) haltNonexistent(vm *VM, pfn uint32) {
	k.haltVM(vm, fmt.Sprintf("reference to nonexistent VM-physical page %#x", pfn))
}

// walkOutcome classifies a walk of the VM's own page tables.
type walkOutcome uint8

const (
	walkOK      walkOutcome = iota
	walkLength              // va beyond its region's length register
	walkPTEAV               // process PTE outside S space or SLR, or its S PTE reserved
	walkPTETNV              // the S page holding the process PTE is invalid
	walkOutside             // a page table lies outside VM memory
)

// guestWalk is the software walk of the VM's own page tables for va, in
// VM terms (VM-physical frames, uncompressed protections), exactly as
// the memory-management hardware would walk them. It returns the
// VM-physical address of the guest PTE — S-region PTEs directly, P0/P1
// PTEs through the guest's S-space PTE for their table page. The walk
// reads but never faults or halts: callers decide what an outcome other
// than walkOK means.
func (vm *VM) guestWalk(va uint32) (ptePhys uint32, w walkOutcome) {
	vpn := vax.VPN(va)
	switch vax.Region(va) {
	case vax.RegionSystem:
		if vpn >= vm.slr {
			return 0, walkLength
		}
		ptePhys = vm.sbr + 4*vpn
	case vax.RegionP0, vax.RegionP1:
		br, lr := vm.p0br, vm.p0lr
		if vax.Region(va) == vax.RegionP1 {
			br, lr = vm.p1br, vm.p1lr
		}
		if vpn >= lr {
			return 0, walkLength
		}
		// The process PTE lives in the VM's S space.
		pteVA := br + 4*vpn
		if vax.Region(pteVA) != vax.RegionSystem || vax.VPN(pteVA) >= vm.slr {
			return 0, walkPTEAV
		}
		sv, ok := vm.readPhys(vm.sbr + 4*vax.VPN(pteVA))
		if !ok {
			return 0, walkOutside
		}
		spte := vax.PTE(sv)
		if spte.Prot().Reserved() {
			return 0, walkPTEAV
		}
		if !spte.Valid() {
			return 0, walkPTETNV
		}
		ptePhys = spte.PFN()*vax.PageSize + (pteVA & vax.PageMask)
	default:
		return 0, walkLength
	}
	if !vm.contains(ptePhys, 4) {
		return 0, walkOutside
	}
	return ptePhys, walkOK
}

// walkedPTE reads the guest PTE a walk located, or turns a failed walk
// into the guest fault to reflect. Page tables outside VM memory halt
// the VM (a nonexistent-memory reference, Section 5).
func (k *VMM) walkedPTE(vm *VM, va uint32, write bool, ptePhys uint32, w walkOutcome) (vax.PTE, *guestFault) {
	switch w {
	case walkOK:
		v, _ := vm.readPhys(ptePhys)
		return vax.PTE(v), nil
	case walkLength:
		return 0, vm.avFault(va, write, true)
	case walkPTEAV:
		return 0, vm.avFaultPTE(va, write)
	case walkPTETNV:
		return 0, vm.tnvFaultPTE(va, write)
	}
	if vax.Region(va) == vax.RegionSystem {
		k.haltVM(vm, "system page table outside VM memory")
	} else {
		k.haltVM(vm, "page table page outside VM memory")
	}
	return 0, nil
}

// guestPTE reads the VM's own PTE for va (VM-physical frame,
// uncompressed protection), or returns the guest fault its walk raises.
func (k *VMM) guestPTE(vm *VM, va uint32, wantWrite bool) (vax.PTE, *guestFault) {
	ptePhys, w := vm.guestWalk(va)
	return k.walkedPTE(vm, va, wantWrite, ptePhys, w)
}

// setGuestPTEModify sets PTE<M> in the VM's own page table for va — the
// second half of the modify-fault handler ("the VMM sets PTE<M> in the
// shadow page table, and also sets the corresponding bit in the VM's
// page table", Section 4.4.2).
func (k *VMM) setGuestPTEModify(vm *VM, va uint32) {
	ptePhys, w := vm.guestWalk(va)
	if w != walkOK {
		return
	}
	v, _ := vm.readPhys(ptePhys)
	vm.writePhys(ptePhys, uint32(vax.PTE(v).WithModify(true)))
}

// LayoutRegion describes one range of the real S address space a VM and
// its VMM share (Figure 2 of the paper).
type LayoutRegion struct {
	Name   string
	BaseVA uint32
	Bytes  uint32
	Access string
}

// SharedSpaceLayout reports the live S-space layout for this VM: the
// VM's region below the installation-defined boundary and the VMM's
// private structures above it.
func (vm *VM) SharedSpaceLayout() []LayoutRegion {
	s := vm.shadow
	out := []LayoutRegion{{
		Name:   "VM system space (shadow of the VM's SPT)",
		BaseVA: vax.SystemBase,
		Bytes:  VMSLimitPTEs * vax.PageSize,
		Access: "VM protection codes, ring-compressed",
	}}
	for i, slot := range s.slots {
		out = append(out, LayoutRegion{
			Name:   fmt.Sprintf("VMM: shadow P0 page table, slot %d", i),
			BaseVA: slot.va,
			Bytes:  procSlotPages * vax.PageSize,
			Access: "KW (VMM only)",
		})
	}
	out = append(out,
		LayoutRegion{
			Name:   "VMM: shadow P1 page table",
			BaseVA: s.p1VA,
			Bytes:  p1TablePages * vax.PageSize,
			Access: "KW (VMM only)",
		},
		LayoutRegion{
			Name:   "VMM: identity map for MAPEN=0 execution",
			BaseVA: s.identVA,
			Bytes:  (s.identPTEs*4 + vax.PageSize - 1) / vax.PageSize * vax.PageSize,
			Access: "KW (VMM only)",
		})
	return out
}

// SLimit returns the VM's S-space limit in pages (the "installation-
// defined boundary" of Figure 2).
func (vm *VM) SLimit() uint32 { return VMSLimitPTEs }

// isDeviceFrame reports whether a VM-physical frame belongs to the
// virtual disk controller window.
func isDeviceFrame(pfn uint32) bool {
	base := VMDiskBase / vax.PageSize
	return pfn >= base && pfn < base+1
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}
