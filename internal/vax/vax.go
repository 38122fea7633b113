// Package vax defines the architectural constants and data layouts of the
// VAX architecture as used throughout this reproduction of "Virtualizing
// the VAX Architecture" (Hall & Robinson, ISCA 1991): the processor status
// longword, the four access modes, page table entries and their protection
// codes, internal processor registers, and the system control block.
//
// Apart from the pending-interrupt table (IRQs) that the processor and
// the VMM share, the package is declarative; execution semantics live
// in internal/cpu and internal/mmu.
package vax

import "fmt"

// Mode is a VAX access mode (protection ring). Numerically smaller modes
// are more privileged, matching the VAX encoding in PSL<CUR> and PSL<PRV>.
type Mode uint8

// The four VAX access modes, most privileged first.
const (
	Kernel Mode = iota
	Executive
	Supervisor
	User
	NumModes = 4
)

// String returns the conventional VAX name of the mode.
func (m Mode) String() string {
	switch m {
	case Kernel:
		return "kernel"
	case Executive:
		return "executive"
	case Supervisor:
		return "supervisor"
	case User:
		return "user"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Valid reports whether m is one of the four architectural modes.
func (m Mode) Valid() bool { return m <= User }

// MorePrivileged reports whether m is strictly more privileged than n.
func (m Mode) MorePrivileged(n Mode) bool { return m < n }

// LeastPrivileged returns the less privileged of two modes. The VAX uses
// this combination rule in CHM (target cannot increase privilege beyond
// current) and PROBE (operand mode combined with PSL<PRV>).
func LeastPrivileged(a, b Mode) Mode {
	if a > b {
		return a
	}
	return b
}

// Processor status longword (PSL) field definitions.
//
// The low word is the PSW (condition codes and trap enables); the high
// word holds the privileged fields. PSL<VM> (bit 28) is the modified-VAX
// virtual machine mode bit introduced in Section 4.2 of the paper; it is
// a reserved-zero bit on the standard VAX.
const (
	PSLC  uint32 = 1 << 0 // carry condition code
	PSLV  uint32 = 1 << 1 // overflow condition code
	PSLZ  uint32 = 1 << 2 // zero condition code
	PSLN  uint32 = 1 << 3 // negative condition code
	PSLT  uint32 = 1 << 4 // trace trap enable
	PSLIV uint32 = 1 << 5 // integer overflow enable
	PSLFU uint32 = 1 << 6 // floating underflow enable
	PSLDV uint32 = 1 << 7 // decimal overflow enable

	PSLIPLShift        = 16
	PSLIPLMask  uint32 = 0x1F << PSLIPLShift // interrupt priority level

	PSLPrvShift        = 22
	PSLPrvMask  uint32 = 3 << PSLPrvShift // previous access mode
	PSLCurShift        = 24
	PSLCurMask  uint32 = 3 << PSLCurShift // current access mode

	PSLIS  uint32 = 1 << 26 // interrupt stack in use
	PSLFPD uint32 = 1 << 27 // first part done
	PSLVM  uint32 = 1 << 28 // virtual machine mode (modified VAX only)
	PSLTP  uint32 = 1 << 30 // trace pending
	PSLCM  uint32 = 1 << 31 // compatibility mode

	// PSLCC covers the four condition code bits.
	PSLCC = PSLC | PSLV | PSLZ | PSLN

	// PSLMBZ are the bits that must be zero in any PSL image given to
	// REI on the standard architecture: bits 8-15, bit 21, and bit 29.
	// (Bit 28 — PSL<VM> on the modified architecture — is checked
	// separately so REI can name it explicitly.)
	PSLMBZ uint32 = 0x2020FF00
)

// PSL wraps a processor status longword with field accessors.
type PSL uint32

// Cur returns the current access mode field.
func (p PSL) Cur() Mode { return Mode(uint32(p) & PSLCurMask >> PSLCurShift) }

// Prv returns the previous access mode field.
func (p PSL) Prv() Mode { return Mode(uint32(p) & PSLPrvMask >> PSLPrvShift) }

// IPL returns the interrupt priority level field.
func (p PSL) IPL() uint8 { return uint8(uint32(p) & PSLIPLMask >> PSLIPLShift) }

// IS reports whether the interrupt stack bit is set.
func (p PSL) IS() bool { return uint32(p)&PSLIS != 0 }

// VM reports whether the (modified VAX) virtual machine mode bit is set.
func (p PSL) VM() bool { return uint32(p)&PSLVM != 0 }

// WithCur returns p with the current mode field replaced.
func (p PSL) WithCur(m Mode) PSL {
	return PSL(uint32(p)&^PSLCurMask | uint32(m)<<PSLCurShift)
}

// WithPrv returns p with the previous mode field replaced.
func (p PSL) WithPrv(m Mode) PSL {
	return PSL(uint32(p)&^PSLPrvMask | uint32(m)<<PSLPrvShift)
}

// WithIPL returns p with the interrupt priority level field replaced.
func (p PSL) WithIPL(ipl uint8) PSL {
	return PSL(uint32(p)&^PSLIPLMask | uint32(ipl&0x1F)<<PSLIPLShift)
}

// WithVM returns p with PSL<VM> set or cleared.
func (p PSL) WithVM(on bool) PSL {
	if on {
		return PSL(uint32(p) | PSLVM)
	}
	return PSL(uint32(p) &^ PSLVM)
}

func (p PSL) String() string {
	return fmt.Sprintf("PSL{cur=%s prv=%s ipl=%d is=%t vm=%t cc=%04b}",
		p.Cur(), p.Prv(), p.IPL(), p.IS(), p.VM(), uint32(p)&PSLCC)
}

// Virtual address space geometry. Pages are 512 bytes; the 32-bit virtual
// address divides into a 2-bit region select, a 21-bit virtual page
// number, and a 9-bit byte offset (VAX Architecture Reference Manual).
const (
	PageSize  = 512
	PageShift = 9
	PageMask  = PageSize - 1

	// Region selectors from virtual address bits <31:30>.
	RegionP0       = 0 // program region, grows up from 0
	RegionP1       = 1 // control region, grows down toward 0x40000000
	RegionSystem   = 2 // system region, shared by all processes
	RegionReserved = 3

	// Region base virtual addresses.
	P0Base     uint32 = 0x00000000
	P1Base     uint32 = 0x40000000
	SystemBase uint32 = 0x80000000

	// MaxRegionBytes is the architectural 1 GB upper limit on the size of
	// each of P0, P1 and S space (Section 5 notes the virtual VAX may be
	// configured with a smaller limit).
	MaxRegionBytes uint32 = 1 << 30
)

// Region returns the region selector (RegionP0..RegionReserved) of va.
func Region(va uint32) int { return int(va >> 30) }

// VPN returns the virtual page number within the region of va.
func VPN(va uint32) uint32 { return (va & 0x3FFFFFFF) >> PageShift }

// PageBase returns va rounded down to its page base.
func PageBase(va uint32) uint32 { return va &^ uint32(PageMask) }
