// Package mmu implements VAX memory management: the three-region virtual
// address space (Figure 1 of the paper), page-table walks with process
// page tables living in S-space virtual memory, a translation buffer
// with TBIA/TBIS invalidation, protection checking, and — when enabled —
// the modify fault of Section 4.4.2 of the paper.
package mmu

import (
	"repro/internal/mem"
	"repro/internal/vax"
)

// Access distinguishes read from write references.
type Access uint8

const (
	Read Access = iota
	Write
)

func (a Access) String() string {
	if a == Write {
		return "write"
	}
	return "read"
}

// Stats counts MMU events for the experiment harness.
type Stats struct {
	Translations     uint64
	TLBHits          uint64
	TLBMisses        uint64
	TNVFaults        uint64 // translation not valid
	ProtFaults       uint64 // access violations
	ModifyFaults     uint64 // modify faults raised (modified VAX)
	MSets            uint64 // PTE<M> set by hardware (standard VAX)
	FastTranslations uint64 // hits on the no-fault TranslateFast path
}

// The translation buffer is a fixed-size direct-mapped array, sized and
// indexed like a real VAX TB (the 8800 family used direct-mapped
// translation buffers of a few hundred entries). Each set holds one
// entry tagged with the full page key (va >> PageShift, region bits
// included, so P0/P1/S pages never hit each other's entries). Validity
// is a generation number: an entry is live only when its gen matches
// the MMU's current gen, which makes TBIA an O(1) counter bump instead
// of an O(sets) sweep or a map reallocation.
//
// Each entry also holds its fast-path grants, computed once when
// Translate fills it: bit m is set when mode m may read the page, bit
// 4+m when mode m may write it and PTE<M> is already set, and none is
// set for a reserved protection or an invalid PTE. A hit that needs no
// walk, fault or M-bit update is then a key/gen compare and one mask
// test (Lookup); every other access takes Translate, the one place the
// protection rules are applied.
const (
	tlbSets = 512
	tlbMask = tlbSets - 1
)

type tlbEntry struct {
	key   uint32 // va >> PageShift (tag, region bits included)
	gen   uint32 // live iff == MMU.gen
	pte   vax.PTE
	grant uint32 // fast-path grants (see above)
}

// protGrants holds, per protection code, the read grants in the low
// nibble and the write grants in the high one, derived from
// Protection.CanRead and CanWrite.
var protGrants = func() (g [16]uint32) {
	for p := range g {
		for m := vax.Mode(0); m < vax.NumModes; m++ {
			if vax.Protection(p).CanRead(m) {
				g[p] |= 1 << m
			}
			if vax.Protection(p).CanWrite(m) {
				g[p] |= 1 << (4 + m)
			}
		}
	}
	return g
}()

// grants returns the fast-path grants of a PTE that Translate caches.
// A reserved protection grants nothing in protGrants.
func grants(pte vax.PTE) uint32 {
	if !pte.Valid() {
		return 0
	}
	g := protGrants[pte.Prot()&0xF]
	if !pte.Modified() {
		g &= 0xF
	}
	return g
}

// tlbIndex folds the region bits (key bits 21-22, from va bits 30-31)
// into the set index so that congruent P0, P1 and S pages — which tiny
// guests touch constantly at the same small offsets — land in different
// sets instead of thrashing one.
func tlbIndex(key uint32) uint32 { return (key ^ key>>14) & tlbMask }

// MMU holds the memory-management state of one simulated processor.
type MMU struct {
	Mem *mem.Memory

	// Mapping registers (IPRs mirrored here by the CPU).
	Enabled    bool   // MAPEN
	P0BR, P1BR uint32 // S-space virtual addresses of the process page tables
	P0LR, P1LR uint32 // lengths in PTEs
	SBR        uint32 // physical address of the system page table
	SLR        uint32 // length in PTEs

	// ModifyFaultEnabled, when it returns true, makes a legal write to a
	// page with PTE<M> clear raise a modify fault instead of setting the
	// bit in hardware (paper Section 4.4.2). The CPU wires this to
	// "modified VAX variant and PSL<VM> set".
	ModifyFaultEnabled func() bool

	// OnWrite, when non-nil, is told after the MMU itself writes n
	// bytes of physical memory at pa: the PTE<M> write-back. The CPU
	// uses it to drop the decoded instructions those bytes overwrite.
	// It is an interface rather than a func so that wiring it to the
	// CPU allocates nothing.
	OnWrite interface{ InvalidateDecode(pa, n uint32) }

	Stats Stats

	tlb     [tlbSets]tlbEntry
	gen     uint32 // current TLB generation; entries with gen != this are dead
	scratch vax.ExcScratch
}

// New creates an MMU over the given physical memory, with mapping
// disabled (physical addressing) as after processor init.
func New(m *mem.Memory) *MMU {
	// gen starts at 1 so the zero-valued entries of a fresh array are
	// already invalid.
	return &MMU{Mem: m, gen: 1}
}

// TBIA invalidates the entire translation buffer in O(1) by retiring
// the current generation. On the (cosmically rare) counter wraparound
// the array is swept so stale entries from generation 1 cannot revive.
func (u *MMU) TBIA() {
	u.gen++
	if u.gen == 0 {
		u.tlb = [tlbSets]tlbEntry{}
		u.gen = 1
	}
}

// TBIS invalidates the translation for the page containing va.
func (u *MMU) TBIS(va uint32) {
	key := va >> vax.PageShift
	if e := &u.tlb[tlbIndex(key)]; e.gen == u.gen && e.key == key {
		e.gen = 0
	}
}

// TLBSize returns the number of live cached translations (for tests).
func (u *MMU) TLBSize() int {
	n := 0
	for i := range u.tlb {
		if u.tlb[i].gen == u.gen {
			n++
		}
	}
	return n
}

// The fault constructors recycle the MMU's scratch exception cell: the
// returned *vax.Exception is valid only until the next fault from this
// MMU (see vax.ExcScratch). Handlers that need the parameters beyond
// the current dispatch must copy them out.
func (u *MMU) accessViolation(va uint32, a Access, length, pteRef bool) *vax.Exception {
	param := uint32(0)
	if a == Write {
		param |= vax.FaultParamWrite
	}
	if length {
		param |= vax.FaultParamLength
	}
	if pteRef {
		param |= vax.FaultParamPTERef
	}
	return u.scratch.Set2(vax.VecAccessViol, vax.Fault, param, va)
}

func (u *MMU) tnvFault(va uint32, a Access, pteRef bool) *vax.Exception {
	param := uint32(0)
	if a == Write {
		param |= vax.FaultParamWrite
	}
	if pteRef {
		param |= vax.FaultParamPTERef
	}
	return u.scratch.Set2(vax.VecTransNotValid, vax.Fault, param, va)
}

func (u *MMU) modifyFault(va uint32) *vax.Exception {
	return u.scratch.Set2(vax.VecModifyFault, vax.Fault, vax.FaultParamWrite, va)
}

// pteSlot locates the PTE describing va: its address and whether that
// address is physical (system region) or an S-space virtual address
// (process regions). A false ok means a length violation.
func (u *MMU) pteSlot(va uint32) (addr uint32, physical, ok bool) {
	vpn := vax.VPN(va)
	switch vax.Region(va) {
	case vax.RegionP0:
		if vpn >= u.P0LR {
			return 0, false, false
		}
		return u.P0BR + 4*vpn, false, true
	case vax.RegionP1:
		// P1 grows downward: valid P1 addresses are the top of the
		// region, and P1LR names the number of *unmapped* low pages in
		// the full architecture. For simplicity this implementation uses
		// P1LR as the count of mapped pages at the bottom of P1, like P0.
		if vpn >= u.P1LR {
			return 0, false, false
		}
		return u.P1BR + 4*vpn, false, true
	case vax.RegionSystem:
		if vpn >= u.SLR {
			return 0, false, false
		}
		return u.SBR + 4*vpn, true, true
	}
	return 0, false, false
}

// fetchPTE reads the PTE for va, walking the system page table when the
// PTE itself lives in S-space virtual memory. Faults taken on the PTE
// reference carry FaultParamPTERef.
func (u *MMU) fetchPTE(va uint32, a Access) (vax.PTE, uint32, bool, error) {
	slot, physical, ok := u.pteSlot(va)
	if !ok {
		return 0, 0, false, u.accessViolation(va, a, true, false)
	}
	if physical {
		raw, err := u.Mem.LoadLong(slot)
		if err != nil {
			return 0, 0, false, err
		}
		return vax.PTE(raw), slot, true, nil
	}
	// The process PTE resides in S space: translate its address through
	// the system page table (one level of indirection, as on the VAX).
	if vax.Region(slot) != vax.RegionSystem {
		return 0, 0, false, u.accessViolation(va, a, true, true)
	}
	svpn := vax.VPN(slot)
	if svpn >= u.SLR {
		return 0, 0, false, u.accessViolation(va, a, true, true)
	}
	raw, err := u.Mem.LoadLong(u.SBR + 4*svpn)
	if err != nil {
		return 0, 0, false, err
	}
	spte := vax.PTE(raw)
	if spte.Prot().Reserved() {
		return 0, 0, false, u.accessViolation(va, a, false, true)
	}
	if !spte.Valid() {
		return 0, 0, false, u.tnvFault(va, a, true)
	}
	pteAddr := spte.PFN()*vax.PageSize + (slot & vax.PageMask)
	praw, err := u.Mem.LoadLong(pteAddr)
	if err != nil {
		return 0, 0, false, err
	}
	return vax.PTE(praw), pteAddr, false, nil
}

// storePTE writes back a PTE fetched by fetchPTE (hardware M-bit
// setting on the standard VAX), then reports the write through
// OnWrite.
func (u *MMU) storePTE(pteAddr uint32, pte vax.PTE) error {
	if err := u.Mem.StoreLong(pteAddr, uint32(pte)); err != nil {
		return err
	}
	if u.OnWrite != nil {
		u.OnWrite.InvalidateDecode(pteAddr, 4)
	}
	return nil
}

// Translate maps a virtual address to a physical address for an access
// of the given kind from the given mode. With mapping disabled the
// address passes through unchanged. Returned errors are *vax.Exception
// (faults to be dispatched) or *mem.BusError (machine check).
func (u *MMU) Translate(va uint32, a Access, mode vax.Mode) (uint32, error) {
	if !u.Enabled {
		return va, nil
	}
	u.Stats.Translations++
	if vax.Region(va) == vax.RegionReserved {
		return 0, u.accessViolation(va, a, true, false)
	}

	key := va >> vax.PageShift
	slot := &u.tlb[tlbIndex(key)]
	var pte vax.PTE
	var pteAddr uint32
	if slot.gen == u.gen && slot.key == key {
		u.Stats.TLBHits++
		pte = slot.pte
		// The TLB does not store the PTE's memory address; hardware
		// refetches on an M-bit update (rare path).
	} else {
		u.Stats.TLBMisses++
		var err error
		pte, pteAddr, _, err = u.fetchPTE(va, a)
		if err != nil {
			return 0, err
		}
	}

	prot := pte.Prot()
	if prot.Reserved() {
		u.Stats.ProtFaults++
		return 0, u.accessViolation(va, a, false, false)
	}
	// The architecture checks protection even when PTE<V> is clear
	// (Section 3.2.1) — the property the null PTE of Section 4.3.1
	// relies on.
	allowed := prot.CanRead(mode)
	if a == Write {
		allowed = prot.CanWrite(mode)
	}
	if !allowed {
		u.Stats.ProtFaults++
		return 0, u.accessViolation(va, a, false, false)
	}
	if !pte.Valid() {
		u.Stats.TNVFaults++
		u.TBIS(va)
		return 0, u.tnvFault(va, a, false)
	}

	if a == Write && !pte.Modified() {
		if u.ModifyFaultEnabled != nil && u.ModifyFaultEnabled() {
			// Modified VAX: deliver a modify fault; software must set
			// PTE<M> and retry (Section 4.4.2).
			u.Stats.ModifyFaults++
			u.TBIS(va)
			return 0, u.modifyFault(va)
		}
		// Standard VAX: hardware sets PTE<M> without a trap.
		u.Stats.MSets++
		if pteAddr == 0 {
			// TLB hit: refetch to learn the PTE's address.
			var err error
			pte, pteAddr, _, err = u.fetchPTE(va, a)
			if err != nil {
				return 0, err
			}
		}
		pte = pte.WithModify(true)
		if err := u.storePTE(pteAddr, pte); err != nil {
			return 0, err
		}
	}

	*slot = tlbEntry{key: key, gen: u.gen, pte: pte, grant: grants(pte)}
	return pte.PFN()*vax.PageSize + (va & vax.PageMask), nil
}

// Lookup maps va to a physical address only when it can do so without
// walking page tables, without faulting, and without side effects:
// mapping disabled, or a TLB hit that grants the access to mode (for a
// write, with PTE<M> already set). It counts nothing. Callers that act
// on a successful Lookup credit it with CountFastHits; TranslateFast
// does both.
func (u *MMU) Lookup(va uint32, a Access, mode vax.Mode) (uint32, bool) {
	if !u.Enabled {
		return va, true
	}
	key := va >> vax.PageShift
	e := &u.tlb[tlbIndex(key)]
	if e.gen != u.gen || e.key != key || e.grant>>(4*uint32(a)+uint32(mode))&1 == 0 {
		return 0, false
	}
	return e.pte.PFN()*vax.PageSize + (va & vax.PageMask), true
}

// TranslateFast is the TLB-hit fast path: Lookup, counted as a
// translation. Any case Lookup refuses returns ok == false without
// touching the statistics, and the caller falls back to Translate,
// which performs the walk, counts the event, and boxes the fault. On
// success no error value exists at all, so the hot path allocates
// nothing.
func (u *MMU) TranslateFast(va uint32, a Access, mode vax.Mode) (uint32, bool) {
	pa, ok := u.Lookup(va, a, mode)
	if ok {
		u.CountFastHits(1)
	}
	return pa, ok
}

// CountFastHits credits n translations that the caller resolved by a
// successful Lookup, or by reusing one of the same page with the mode
// and the TLB unchanged since: the statistics read as if each had been
// its own TranslateFast. With mapping off TranslateFast counts
// nothing, and neither does this.
func (u *MMU) CountFastHits(n uint64) {
	if u.Enabled {
		u.Stats.Translations += n
		u.Stats.TLBHits += n
		u.Stats.FastTranslations += n
	}
}

// ProbePTE fetches (without caching) the PTE governing va, for the PROBE
// and PROBEVM instructions. The bool reports whether the page is within
// the region length; out-of-length probes are simply inaccessible rather
// than faulting (PROBE sets a condition code instead).
func (u *MMU) ProbePTE(va uint32) (vax.PTE, bool, error) {
	if !u.Enabled {
		return vax.NewPTE(true, vax.ProtUW, true, vax.VPN(va)), true, nil
	}
	if vax.Region(va) == vax.RegionReserved {
		return 0, false, nil
	}
	pte, _, _, err := u.fetchPTE(va, Read)
	if err != nil {
		if _, isExc := err.(*vax.Exception); isExc {
			// A fault on the PTE reference itself means the page is not
			// accessible as far as PROBE is concerned.
			return 0, false, nil
		}
		return 0, false, err
	}
	return pte, true, nil
}

// Probe implements the accessibility test of PROBER/PROBEW on the
// standard VAX: protection is checked against mode regardless of the
// valid bit.
func (u *MMU) Probe(va uint32, a Access, mode vax.Mode) (bool, error) {
	pte, inLen, err := u.ProbePTE(va)
	if err != nil {
		return false, err
	}
	if !inLen {
		return false, nil
	}
	prot := pte.Prot()
	if prot.Reserved() {
		return false, nil
	}
	if a == Write {
		return prot.CanWrite(mode), nil
	}
	return prot.CanRead(mode), nil
}
