package vax

import "fmt"

// PTE is a VAX page table entry.
//
// Layout (VAX Architecture Reference Manual):
//
//	bit  31     V      valid
//	bits 30:27  PROT   protection code
//	bit  26     M      modify
//	bits 20:0   PFN    page frame number
//
// Bits 25:21 are software-available and unused here.
type PTE uint32

const (
	PTEValid  uint32 = 1 << 31
	PTEModify uint32 = 1 << 26

	pteProtShift        = 27
	pteProtMask  uint32 = 0xF << pteProtShift
	ptePFNMask   uint32 = 0x001FFFFF
)

// MaxPhysBytes is the most physical memory a PTE's 21-bit page frame
// number addresses: 1 GB.
const MaxPhysBytes = (ptePFNMask + 1) * PageSize

// NewPTE assembles a page table entry.
func NewPTE(valid bool, prot Protection, modified bool, pfn uint32) PTE {
	v := uint32(prot)<<pteProtShift | pfn&ptePFNMask
	if valid {
		v |= PTEValid
	}
	if modified {
		v |= PTEModify
	}
	return PTE(v)
}

// Valid reports PTE<V>.
func (p PTE) Valid() bool { return uint32(p)&PTEValid != 0 }

// Modified reports PTE<M>.
func (p PTE) Modified() bool { return uint32(p)&PTEModify != 0 }

// Prot returns PTE<PROT>.
func (p PTE) Prot() Protection { return Protection(uint32(p) & pteProtMask >> pteProtShift) }

// PFN returns PTE<PFN>.
func (p PTE) PFN() uint32 { return uint32(p) & ptePFNMask }

// WithModify returns p with PTE<M> set or cleared.
func (p PTE) WithModify(on bool) PTE {
	if on {
		return PTE(uint32(p) | PTEModify)
	}
	return PTE(uint32(p) &^ PTEModify)
}

// WithValid returns p with PTE<V> set or cleared.
func (p PTE) WithValid(on bool) PTE {
	if on {
		return PTE(uint32(p) | PTEValid)
	}
	return PTE(uint32(p) &^ PTEValid)
}

// WithProt returns p with the protection code replaced.
func (p PTE) WithProt(prot Protection) PTE {
	return PTE(uint32(p)&^pteProtMask | uint32(prot)<<pteProtShift)
}

func (p PTE) String() string {
	return fmt.Sprintf("PTE{v=%t m=%t prot=%s pfn=%#x}", p.Valid(), p.Modified(), p.Prot(), p.PFN())
}

// Protection is a 4-bit VAX page protection code. Each code names the
// least privileged mode granted write access and the least privileged
// mode granted read access; for any mode, write access implies read
// access (Section 3.2.1 of the paper).
type Protection uint8

// The architectural protection codes.
const (
	ProtNA   Protection = 0  // no access
	ProtRsvd Protection = 1  // reserved; references fault
	ProtKW   Protection = 2  // kernel write
	ProtKR   Protection = 3  // kernel read
	ProtUW   Protection = 4  // all modes write (used by the null PTE)
	ProtEW   Protection = 5  // executive write
	ProtERKW Protection = 6  // executive read, kernel write
	ProtER   Protection = 7  // executive read
	ProtSW   Protection = 8  // supervisor write
	ProtSREW Protection = 9  // supervisor read, executive write
	ProtSRKW Protection = 10 // supervisor read, kernel write
	ProtSR   Protection = 11 // supervisor read
	ProtURSW Protection = 12 // user read, supervisor write
	ProtUREW Protection = 13 // user read, executive write
	ProtURKW Protection = 14 // user read, kernel write
	ProtUR   Protection = 15 // user read
)

// protSpec gives, for each protection code, the least privileged mode
// that may write and the least privileged mode that may read. A nil
// entry means no mode has that access.
type protSpec struct {
	write, read Mode
	hasWrite    bool
	hasRead     bool
	reserved    bool
}

var protTable = [16]protSpec{
	ProtNA:   {},
	ProtRsvd: {reserved: true},
	ProtKW:   {write: Kernel, read: Kernel, hasWrite: true, hasRead: true},
	ProtKR:   {read: Kernel, hasRead: true},
	ProtUW:   {write: User, read: User, hasWrite: true, hasRead: true},
	ProtEW:   {write: Executive, read: Executive, hasWrite: true, hasRead: true},
	ProtERKW: {write: Kernel, read: Executive, hasWrite: true, hasRead: true},
	ProtER:   {read: Executive, hasRead: true},
	ProtSW:   {write: Supervisor, read: Supervisor, hasWrite: true, hasRead: true},
	ProtSREW: {write: Executive, read: Supervisor, hasWrite: true, hasRead: true},
	ProtSRKW: {write: Kernel, read: Supervisor, hasWrite: true, hasRead: true},
	ProtSR:   {read: Supervisor, hasRead: true},
	ProtURSW: {write: Supervisor, read: User, hasWrite: true, hasRead: true},
	ProtUREW: {write: Executive, read: User, hasWrite: true, hasRead: true},
	ProtURKW: {write: Kernel, read: User, hasWrite: true, hasRead: true},
	ProtUR:   {read: User, hasRead: true},
}

var protNames = [16]string{
	"NA", "RESERVED", "KW", "KR", "UW", "EW", "ERKW", "ER",
	"SW", "SREW", "SRKW", "SR", "URSW", "UREW", "URKW", "UR",
}

func (p Protection) String() string {
	if p < 16 {
		return protNames[p]
	}
	return fmt.Sprintf("prot(%d)", uint8(p))
}

// Reserved reports whether p is the reserved protection code, references
// through which take a fault.
func (p Protection) Reserved() bool { return p == ProtRsvd }

// CanRead reports whether mode m may read a page with protection p.
func (p Protection) CanRead(m Mode) bool {
	s := protTable[p&0xF]
	if s.reserved {
		return false
	}
	// Write access implies read access.
	if s.hasWrite && m <= s.write {
		return true
	}
	return s.hasRead && m <= s.read
}

// CanWrite reports whether mode m may write a page with protection p.
func (p Protection) CanWrite(m Mode) bool {
	s := protTable[p&0xF]
	return !s.reserved && s.hasWrite && m <= s.write
}

// KernelOnly reports whether p limits all of its read or write access to
// kernel mode — exactly the codes that memory ring compression must
// rewrite (Section 4.3.1).
func (p Protection) KernelOnly() bool {
	switch p {
	case ProtKW, ProtKR, ProtERKW, ProtSRKW, ProtURKW:
		return true
	}
	return false
}

// ReadOnly returns the code granting p's read set and no write access —
// the building block of the modify-fault alternative the paper
// considered and rejected (Section 4.4.2: give writable pages a
// read-only shadow protection and upgrade on the first write fault).
func (p Protection) ReadOnly() Protection {
	switch p {
	case ProtKW:
		return ProtKR
	case ProtEW, ProtERKW:
		return ProtER
	case ProtSW, ProtSREW, ProtSRKW:
		return ProtSR
	case ProtUW, ProtURSW, ProtUREW, ProtURKW:
		return ProtUR
	}
	return p
}

// Compress returns the ring-compressed protection code: any access that
// p limits to kernel mode is extended to executive mode, so that VM
// kernel code (running in real executive mode) retains its access. All
// other codes are fixed points. This is the table in DESIGN.md §6.
func (p Protection) Compress() Protection {
	switch p {
	case ProtKW:
		return ProtEW
	case ProtKR:
		return ProtER
	case ProtERKW:
		return ProtEW
	case ProtSRKW:
		return ProtSREW
	case ProtURKW:
		return ProtUREW
	}
	return p
}
