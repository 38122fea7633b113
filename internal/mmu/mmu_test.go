package mmu

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/vax"
)

// buildSystem creates a memory with a system page table at sptBase
// mapping nSys pages of S space identity-style: S page i -> frame
// frameBase+i with protection prot.
func buildSystem(t *testing.T, nSys uint32, prot vax.Protection) (*MMU, *mem.Memory) {
	t.Helper()
	m := mem.New(256 * vax.PageSize)
	const sptBase = 0x1000 // frame 8
	for i := uint32(0); i < nSys; i++ {
		pte := vax.NewPTE(true, prot, false, 16+i)
		if err := m.StoreLong(sptBase+4*i, uint32(pte)); err != nil {
			t.Fatal(err)
		}
	}
	u := New(m)
	u.Enabled = true
	u.SBR = sptBase
	u.SLR = nSys
	return u, m
}

func TestDisabledPassThrough(t *testing.T) {
	u := New(mem.New(vax.PageSize))
	pa, err := u.Translate(0x123, Write, vax.User)
	if err != nil || pa != 0x123 {
		t.Fatalf("pass-through failed: %v %#x", err, pa)
	}
}

func TestSystemTranslation(t *testing.T) {
	u, _ := buildSystem(t, 4, vax.ProtUW)
	pa, err := u.Translate(vax.SystemBase+2*vax.PageSize+7, Read, vax.User)
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(18*vax.PageSize + 7)
	if pa != want {
		t.Errorf("pa = %#x, want %#x", pa, want)
	}
}

func TestSystemLengthViolation(t *testing.T) {
	u, _ := buildSystem(t, 4, vax.ProtUW)
	_, err := u.Translate(vax.SystemBase+5*vax.PageSize, Read, vax.Kernel)
	exc, ok := err.(*vax.Exception)
	if !ok || exc.Vector != vax.VecAccessViol {
		t.Fatalf("want access violation, got %v", err)
	}
	if exc.Params[0]&vax.FaultParamLength == 0 {
		t.Error("length bit not set")
	}
}

func TestProtectionFault(t *testing.T) {
	u, _ := buildSystem(t, 4, vax.ProtURKW)
	// URKW: user may read, only kernel may write.
	if _, err := u.Translate(vax.SystemBase, Read, vax.User); err != nil {
		t.Errorf("user read should pass: %v", err)
	}
	_, err := u.Translate(vax.SystemBase, Write, vax.User)
	exc, ok := err.(*vax.Exception)
	if !ok || exc.Vector != vax.VecAccessViol {
		t.Fatalf("want access violation, got %v", err)
	}
	if exc.Params[0]&vax.FaultParamWrite == 0 {
		t.Error("write bit not set in fault param")
	}
	if _, err := u.Translate(vax.SystemBase, Write, vax.Kernel); err != nil {
		t.Errorf("kernel write should pass: %v", err)
	}
}

func TestTranslationNotValid(t *testing.T) {
	u, m := buildSystem(t, 4, vax.ProtUW)
	// Invalidate S page 1.
	pte := vax.NewPTE(false, vax.ProtUW, false, 17)
	if err := m.StoreLong(u.SBR+4, uint32(pte)); err != nil {
		t.Fatal(err)
	}
	_, err := u.Translate(vax.SystemBase+vax.PageSize, Read, vax.User)
	exc, ok := err.(*vax.Exception)
	if !ok || exc.Vector != vax.VecTransNotValid {
		t.Fatalf("want TNV, got %v", err)
	}
	if exc.Params[1] != vax.SystemBase+vax.PageSize {
		t.Errorf("faulting va = %#x", exc.Params[1])
	}
}

// TestProtCheckedEvenWhenInvalid verifies the architectural rule the
// null PTE depends on: protection is checked before validity, so an
// invalid page with NA protection takes an access violation, not TNV,
// while an invalid page with UW protection takes TNV.
func TestProtCheckedEvenWhenInvalid(t *testing.T) {
	u, m := buildSystem(t, 4, vax.ProtUW)
	if err := m.StoreLong(u.SBR+0, uint32(vax.NewPTE(false, vax.ProtNA, false, 16))); err != nil {
		t.Fatal(err)
	}
	_, err := u.Translate(vax.SystemBase, Read, vax.Kernel)
	if exc, ok := err.(*vax.Exception); !ok || exc.Vector != vax.VecAccessViol {
		t.Fatalf("want access violation, got %v", err)
	}
	if err := m.StoreLong(u.SBR+0, uint32(vax.NewPTE(false, vax.ProtUW, false, 16))); err != nil {
		t.Fatal(err)
	}
	_, err = u.Translate(vax.SystemBase, Read, vax.Kernel)
	if exc, ok := err.(*vax.Exception); !ok || exc.Vector != vax.VecTransNotValid {
		t.Fatalf("want TNV, got %v", err)
	}
}

func TestHardwareSetsModifyBit(t *testing.T) {
	u, m := buildSystem(t, 4, vax.ProtUW)
	va := vax.SystemBase + vax.PageSize
	if _, err := u.Translate(va, Read, vax.User); err != nil {
		t.Fatal(err)
	}
	raw, _ := m.LoadLong(u.SBR + 4)
	if vax.PTE(raw).Modified() {
		t.Fatal("M set by read")
	}
	if _, err := u.Translate(va, Write, vax.User); err != nil {
		t.Fatal(err)
	}
	raw, _ = m.LoadLong(u.SBR + 4)
	if !vax.PTE(raw).Modified() {
		t.Error("standard VAX must set M in hardware on write")
	}
	if u.Stats.MSets != 1 {
		t.Errorf("MSets = %d", u.Stats.MSets)
	}
}

func TestModifyFaultMode(t *testing.T) {
	u, m := buildSystem(t, 4, vax.ProtUW)
	u.ModifyFaultEnabled = func() bool { return true }
	va := vax.SystemBase
	_, err := u.Translate(va, Write, vax.User)
	exc, ok := err.(*vax.Exception)
	if !ok || exc.Vector != vax.VecModifyFault {
		t.Fatalf("want modify fault, got %v", err)
	}
	raw, _ := m.LoadLong(u.SBR)
	if vax.PTE(raw).Modified() {
		t.Error("modify fault must not set M itself")
	}
	// The handler sets M the way software does: it stores the PTE with
	// M set and invalidates the translation. The retried write succeeds.
	if err := m.StoreLong(u.SBR, uint32(vax.PTE(raw).WithModify(true))); err != nil {
		t.Fatal(err)
	}
	u.TBIS(va)
	if _, err := u.Translate(va, Write, vax.User); err != nil {
		t.Errorf("retry after setting PTE<M> failed: %v", err)
	}
	if u.Stats.ModifyFaults != 1 {
		t.Errorf("ModifyFaults = %d", u.Stats.ModifyFaults)
	}
	// Reads never modify-fault.
	if _, err := u.Translate(va+vax.PageSize, Read, vax.User); err != nil {
		t.Errorf("read must not modify-fault: %v", err)
	}
}

func TestTLBCachingAndInvalidate(t *testing.T) {
	u, m := buildSystem(t, 4, vax.ProtUW)
	va := vax.SystemBase
	if _, err := u.Translate(va, Read, vax.User); err != nil {
		t.Fatal(err)
	}
	if u.Stats.TLBMisses != 1 || u.TLBSize() != 1 {
		t.Fatalf("miss=%d size=%d", u.Stats.TLBMisses, u.TLBSize())
	}
	if _, err := u.Translate(va+8, Read, vax.User); err != nil {
		t.Fatal(err)
	}
	if u.Stats.TLBHits != 1 {
		t.Errorf("hits = %d", u.Stats.TLBHits)
	}
	// Change the PTE under the TLB: without invalidation the stale
	// translation is used (architecturally allowed); after TBIS the new
	// one is fetched.
	if err := m.StoreLong(u.SBR, uint32(vax.NewPTE(true, vax.ProtUW, true, 20))); err != nil {
		t.Fatal(err)
	}
	pa, _ := u.Translate(va, Read, vax.User)
	if pa != 16*vax.PageSize {
		t.Errorf("expected stale translation, got %#x", pa)
	}
	u.TBIS(va)
	pa, _ = u.Translate(va, Read, vax.User)
	if pa != 20*vax.PageSize {
		t.Errorf("after TBIS pa = %#x, want %#x", pa, 20*vax.PageSize)
	}
	u.TBIA()
	if u.TLBSize() != 0 {
		t.Error("TBIA did not clear")
	}
}

func TestProcessSpaceDoubleWalk(t *testing.T) {
	u, m := buildSystem(t, 8, vax.ProtUW)
	// Place a P0 page table in S page 3 (frame 19): P0 page 0 -> frame 30.
	p0va := vax.SystemBase + 3*vax.PageSize
	u.P0BR = p0va
	u.P0LR = 2
	if err := m.StoreLong(19*vax.PageSize, uint32(vax.NewPTE(true, vax.ProtUW, false, 30))); err != nil {
		t.Fatal(err)
	}
	pa, err := u.Translate(0x00000005, Read, vax.User)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 30*vax.PageSize+5 {
		t.Errorf("pa = %#x", pa)
	}
	// P0 length violation.
	_, err = u.Translate(2*vax.PageSize, Read, vax.User)
	if exc, ok := err.(*vax.Exception); !ok || exc.Vector != vax.VecAccessViol ||
		exc.Params[0]&vax.FaultParamLength == 0 {
		t.Fatalf("want length violation, got %v", err)
	}
	// Invalid process PTE -> TNV without PTERef.
	if err := m.StoreLong(19*vax.PageSize+4, uint32(vax.NewPTE(false, vax.ProtUW, false, 31))); err != nil {
		t.Fatal(err)
	}
	_, err = u.Translate(vax.PageSize, Read, vax.User)
	if exc, ok := err.(*vax.Exception); !ok || exc.Vector != vax.VecTransNotValid ||
		exc.Params[0]&vax.FaultParamPTERef != 0 {
		t.Fatalf("want plain TNV, got %v", err)
	}
	// Invalid *system* PTE underneath the P0 table -> TNV with PTERef.
	if err := m.StoreLong(u.SBR+4*3, uint32(vax.NewPTE(false, vax.ProtUW, false, 19))); err != nil {
		t.Fatal(err)
	}
	u.TBIA()
	_, err = u.Translate(0, Read, vax.User)
	if exc, ok := err.(*vax.Exception); !ok || exc.Vector != vax.VecTransNotValid ||
		exc.Params[0]&vax.FaultParamPTERef == 0 {
		t.Fatalf("want TNV with PTERef, got %v", err)
	}
}

func TestP1Region(t *testing.T) {
	u, m := buildSystem(t, 8, vax.ProtUW)
	u.P1BR = vax.SystemBase + 4*vax.PageSize
	u.P1LR = 1
	if err := m.StoreLong(20*vax.PageSize, uint32(vax.NewPTE(true, vax.ProtUW, false, 40))); err != nil {
		t.Fatal(err)
	}
	pa, err := u.Translate(vax.P1Base+9, Read, vax.User)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 40*vax.PageSize+9 {
		t.Errorf("pa = %#x", pa)
	}
}

func TestReservedRegionFaults(t *testing.T) {
	u, _ := buildSystem(t, 4, vax.ProtUW)
	_, err := u.Translate(0xC0000000, Read, vax.Kernel)
	if exc, ok := err.(*vax.Exception); !ok || exc.Vector != vax.VecAccessViol {
		t.Fatalf("want access violation, got %v", err)
	}
}

func TestReservedProtectionCode(t *testing.T) {
	u, m := buildSystem(t, 4, vax.ProtUW)
	if err := m.StoreLong(u.SBR, uint32(vax.NewPTE(true, vax.ProtRsvd, false, 16))); err != nil {
		t.Fatal(err)
	}
	_, err := u.Translate(vax.SystemBase, Read, vax.Kernel)
	if exc, ok := err.(*vax.Exception); !ok || exc.Vector != vax.VecAccessViol {
		t.Fatalf("want access violation, got %v", err)
	}
}

func TestProbe(t *testing.T) {
	u, m := buildSystem(t, 4, vax.ProtURKW)
	ok, err := u.Probe(vax.SystemBase, Read, vax.User)
	if err != nil || !ok {
		t.Errorf("user read probe: %t %v", ok, err)
	}
	ok, _ = u.Probe(vax.SystemBase, Write, vax.User)
	if ok {
		t.Error("user write probe should fail on URKW")
	}
	ok, _ = u.Probe(vax.SystemBase, Write, vax.Kernel)
	if !ok {
		t.Error("kernel write probe should pass")
	}
	// Probe checks protection even for an invalid PTE.
	if err := m.StoreLong(u.SBR, uint32(vax.NewPTE(false, vax.ProtURKW, false, 16))); err != nil {
		t.Fatal(err)
	}
	u.TBIA()
	ok, _ = u.Probe(vax.SystemBase, Read, vax.User)
	if !ok {
		t.Error("probe must check protection regardless of valid bit")
	}
	// Out of length: inaccessible, no fault.
	ok, err = u.Probe(vax.SystemBase+100*vax.PageSize, Read, vax.Kernel)
	if err != nil || ok {
		t.Errorf("out-of-length probe: %t %v", ok, err)
	}
}

func TestProbePTEDisabled(t *testing.T) {
	u := New(mem.New(vax.PageSize))
	pte, ok, err := u.ProbePTE(0x40)
	if err != nil || !ok || !pte.Valid() {
		t.Errorf("disabled-probe: %v %t %s", err, ok, pte)
	}
}

// Property: translation is a function — two identical reads give the
// same frame, and the offset within the page is preserved.
func TestTranslateDeterministicProperty(t *testing.T) {
	u, _ := buildSystem(t, 8, vax.ProtUW)
	f := func(page uint8, off uint16) bool {
		va := vax.SystemBase + uint32(page%8)*vax.PageSize + uint32(off%vax.PageSize)
		pa1, err1 := u.Translate(va, Read, vax.User)
		pa2, err2 := u.Translate(va, Read, vax.User)
		if err1 != nil || err2 != nil {
			return false
		}
		return pa1 == pa2 && pa1&vax.PageMask == va&vax.PageMask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBusErrorOnBadSBR(t *testing.T) {
	u := New(mem.New(vax.PageSize))
	u.Enabled = true
	u.SBR = 0x10000000
	u.SLR = 4
	_, err := u.Translate(vax.SystemBase, Read, vax.Kernel)
	if _, ok := err.(*mem.BusError); !ok {
		t.Fatalf("want BusError, got %v", err)
	}
}
