package cpu

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/vax"
)

// TestDecodeCacheHitsLoop checks that a tight loop replays from the
// decoded-instruction cache instead of re-parsing every iteration.
func TestDecodeCacheHitsLoop(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	clrl r0
	movl #100, r1
loop:	addl2 #3, r0
	sobgtr r1, loop
	halt
`)
	ma.run(t, 10000)
	if ma.c.R[0] != 300 {
		t.Fatalf("r0 = %d, want 300", ma.c.R[0])
	}
	s := ma.c.Stats
	if s.DecodeHits == 0 {
		t.Fatal("loop produced no decode-cache hits")
	}
	if s.DecodeHits <= s.DecodeMisses {
		t.Errorf("hits (%d) should dominate misses (%d) in a loop",
			s.DecodeHits, s.DecodeMisses)
	}
}

// TestSelfModifyingCode overwrites an instruction's literal between two
// executions: the store must invalidate the cached decode so the second
// execution sees the new bytes.
func TestSelfModifyingCode(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	clrl r2
patch:	movl #5, r1
	tstl r2
	bneq done
	incl r2
	movb #9, @#patch+1    ; rewrite the short literal 5 -> 9
	brb patch
done:	halt
`)
	ma.run(t, 10000)
	if ma.c.R[1] != 9 {
		t.Fatalf("r1 = %d, want 9 (stale decode executed)", ma.c.R[1])
	}
	if ma.c.Stats.DecodeInvalidations == 0 {
		t.Error("store to code produced no decode invalidations")
	}
}

// straddleMachine builds a mapped machine whose single instruction
// (MOVL #imm32, R0 followed by HALT) starts on the last byte of S page
// 2, so all its operand bytes live on S page 3. Frame frameB backs page
// 3 initially; frameB2 holds an alternative operand page with a
// different immediate.
const (
	strSPT     = 0x1000
	strFrameA  = 18 // backs S page 2 (the opcode byte)
	strFrameB  = 19 // backs S page 3 (immediate + HALT), initially
	strFrameB2 = 40 // alternative backing for S page 3
	strImm1    = 0x11111111
	strImm2    = 0x22222222
)

func newStraddleMachine(t *testing.T) (*CPU, *mem.Memory, uint32) {
	t.Helper()
	m := mem.New(256 * 1024)
	wr := func(pa uint32, b byte) {
		if err := m.StoreByte(pa, b); err != nil {
			t.Fatal(err)
		}
	}
	// Operand bytes at the start of a frame: 8F (immediate) imm32 50
	// (r0) 00 (HALT).
	operands := func(frame, imm uint32) {
		pa := frame * vax.PageSize
		wr(pa, 0x8F)
		for i := uint32(0); i < 4; i++ {
			wr(pa+1+i, byte(imm>>(8*i)))
		}
		wr(pa+5, 0x50)
		wr(pa+6, 0x00)
	}
	wr(strFrameA*vax.PageSize+vax.PageSize-1, 0xD0) // MOVL opcode
	operands(strFrameB, strImm1)
	operands(strFrameB2, strImm2)

	for i, frame := range []uint32{16, 17, strFrameA, strFrameB} {
		pte := vax.NewPTE(true, vax.ProtUW, true, frame)
		if err := m.StoreLong(strSPT+4*uint32(i), uint32(pte)); err != nil {
			t.Fatal(err)
		}
	}
	c := New(m, StandardVAX)
	c.MMU.SBR = strSPT
	c.MMU.SLR = 4
	c.MMU.Enabled = true
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	instVA := uint32(vax.SystemBase) + 2*vax.PageSize + vax.PageSize - 1
	return c, m, instVA
}

func runStraddle(t *testing.T, c *CPU, instVA, want uint32) {
	t.Helper()
	c.ClearHalt()
	c.SetPC(instVA)
	c.Run(10)
	if !c.Halted {
		t.Fatalf("did not halt; pc=%#x", c.PC())
	}
	if c.R[0] != want {
		t.Fatalf("r0 = %#x, want %#x", c.R[0], want)
	}
}

// TestStraddleRemapTBIS remaps the second page of a page-straddling
// cached instruction: after TBIS the replay must not use the stale
// operand bytes.
func TestStraddleRemapTBIS(t *testing.T) {
	c, m, instVA := newStraddleMachine(t)
	runStraddle(t, c, instVA, strImm1)
	runStraddle(t, c, instVA, strImm1) // warm: replays the straddle entry
	if c.Stats.DecodeHits == 0 {
		t.Fatal("straddling instruction never hit the cache")
	}

	pte := vax.NewPTE(true, vax.ProtUW, true, strFrameB2)
	if err := m.StoreLong(strSPT+4*3, uint32(pte)); err != nil {
		t.Fatal(err)
	}
	c.MMU.TBIS(uint32(vax.SystemBase) + 3*vax.PageSize)
	runStraddle(t, c, instVA, strImm2)
	if c.Stats.DecodeInvalidations == 0 {
		t.Error("TBIS flushed no straddling decode entries")
	}
}

// TestStraddleRemapTBIA is the same scenario through a full TLB
// invalidate.
func TestStraddleRemapTBIA(t *testing.T) {
	c, m, instVA := newStraddleMachine(t)
	runStraddle(t, c, instVA, strImm1)
	pte := vax.NewPTE(true, vax.ProtUW, true, strFrameB2)
	if err := m.StoreLong(strSPT+4*3, uint32(pte)); err != nil {
		t.Fatal(err)
	}
	c.MMU.TBIA()
	runStraddle(t, c, instVA, strImm2)
}

// The store-path tests cache one instruction, ADDL3 #0x01020304, R1,
// R0 (8 bytes), write beside it or over it, and execute it again.
var storeTarget = []byte{0xC1, 0x8F, 0x04, 0x03, 0x02, 0x01, 0x51, 0x50}

const (
	storeMid       = 0x410 // page 2, in the middle of the line 0x400-0x41F
	storeStraddle  = 0x5FC // page 2's last 4 bytes; bytes 4-7 on page 3
	storeStraddle1 = 0x5F9 // page 2's last 7 bytes; byte 7 on page 3
)

// newStoreMachine holds storeTarget at each of ats, mapping off.
func newStoreMachine(t *testing.T, ats ...uint32) *CPU {
	t.Helper()
	m := mem.New(64 * 1024)
	for _, at := range ats {
		if err := m.StoreBytes(at, storeTarget); err != nil {
			t.Fatal(err)
		}
	}
	c := New(m, StandardVAX)
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	return c
}

// stepAt executes the one instruction at pa from fixed registers.
func stepAt(c *CPU, pa uint32) {
	c.R = [16]uint32{1: 0x10}
	c.SetPC(pa)
	c.Step()
}

// storeRaw writes the size low bytes of v at pa straight into memory.
func storeRaw(t *testing.T, m *mem.Memory, pa uint32, size int, v uint32) {
	t.Helper()
	for i := 0; i < size; i++ {
		if err := m.StoreByte(pa+uint32(i), byte(v>>(8*i))); err != nil {
			t.Fatal(err)
		}
	}
}

// storeCase is a write of size bytes at rel bytes from the target's
// opcode, and whether it overlaps the target's bytes.
type storeCase struct {
	name string
	rel  int32
	size int
	val  uint32
	drop bool
}

var midStoreCases = []storeCase{
	{"byte before", -1, 1, 0xEE, false},
	{"word before", -2, 2, 0xEEEE, false},
	{"long before", -4, 4, 0xEEEEEEEE, false},
	{"byte after", 8, 1, 0xEE, false},
	{"word after", 8, 2, 0xEEEE, false},
	{"long after", 8, 4, 0xEEEEEEEE, false},
	{"byte in another line", 40, 1, 0xEE, false},
	{"first byte", 0, 1, 0xC3, true}, // ADDL3 -> SUBL3
	{"last byte", 7, 1, 0x52, true},  // destination R0 -> R2
	{"word over first byte", -1, 2, 0xC3EE, true},
	{"word over last byte", 7, 2, 0xEE52, true},
	{"long inside", 4, 4, 0x50510109, true},         // immediate 0x01090304
	{"long over last byte", 5, 4, 0xEE525107, true}, // 0x07020304, R1, R2
}

var straddleStoreCases = []storeCase{
	{"long before", -4, 4, 0xEEEEEEEE, false},
	{"long after", 8, 4, 0xEEEEEEEE, false},
	{"byte after", 8, 1, 0xEE, false},
	{"first byte", 0, 1, 0xC3, true},
	{"second-page first byte", 4, 1, 0x09, true},
	{"second-page last byte", 7, 1, 0x52, true},
	{"second-page long", 4, 4, 0x50510109, true},
}

// straddle1StoreCases write around a straddle with only its last byte
// on the second page: the lowest slot offset a straddle can have.
var straddle1StoreCases = []storeCase{
	{"second-page byte", 7, 1, 0x52, true},
	{"byte after", 8, 1, 0xEE, false},
}

// storeWriters are the two ways a write reaches the cache: the CPU's
// own store path, and a writer that bypasses it and reports the range.
var storeWriters = []struct {
	name  string
	write func(t *testing.T, c *CPU, pa uint32, size int, v uint32)
}{
	{"StoreVirt", func(t *testing.T, c *CPU, pa uint32, size int, v uint32) {
		t.Helper()
		if err := c.StoreVirt(pa, size, v, vax.Kernel); err != nil {
			t.Fatal(err)
		}
	}},
	{"InvalidateDecode", func(t *testing.T, c *CPU, pa uint32, size int, v uint32) {
		t.Helper()
		storeRaw(t, c.Mem, pa, size, v)
		c.InvalidateDecode(pa, uint32(size))
	}},
}

// TestStoreDropsOnlyOverlappedDecodes caches the target, writes one
// case, and executes the target again: a write beside it keeps the
// decode (no invalidation, the next execution hits), and a write over
// any of its bytes drops it (one invalidation, the next execution
// misses). Either way the execution must match a machine that held the
// written bytes from the start.
func TestStoreDropsOnlyOverlappedDecodes(t *testing.T) {
	for _, tc := range []struct {
		at    uint32
		cases []storeCase
	}{
		{storeMid, midStoreCases},
		{storeStraddle, straddleStoreCases},
		{storeStraddle1, straddle1StoreCases},
	} {
		at, cases := tc.at, tc.cases
		base := newStoreMachine(t, at)
		stepAt(base, at)
		for _, w := range storeWriters {
			for _, sc := range cases {
				t.Run(fmt.Sprintf("%#x/%s/%s", at, w.name, sc.name), func(t *testing.T) {
					pa := uint32(int32(at) + sc.rel)
					ref := newStoreMachine(t, at)
					storeRaw(t, ref.Mem, pa, sc.size, sc.val)
					stepAt(ref, at)
					if sc.drop && ref.R == base.R {
						t.Fatal("the written bytes do not change the target's result")
					}

					c := newStoreMachine(t, at)
					stepAt(c, at)
					stepAt(c, at)
					if c.Stats.DecodeHits != 1 || c.Stats.DecodeInvalidations != 0 {
						t.Fatalf("target not cached: %+v", c.Stats)
					}
					w.write(t, c, pa, sc.size, sc.val)
					wantInv := uint64(0)
					if sc.drop {
						wantInv = 1
					}
					if got := c.Stats.DecodeInvalidations; got != wantInv {
						t.Errorf("%d decodes dropped, want %d", got, wantInv)
					}
					hits := c.Stats.DecodeHits
					stepAt(c, at)
					if hit := c.Stats.DecodeHits > hits; hit == sc.drop {
						t.Errorf("next execution hit = %t, want %t", hit, !sc.drop)
					}
					if c.R != ref.R || c.PSL() != ref.PSL() {
						t.Errorf("executed %x %s, want %x %s", c.R, c.PSL(), ref.R, ref.PSL())
					}
				})
			}
		}
	}
}

// TestRangeInvalidate: InvalidateDecode over a range of any length,
// across page boundaries, drops exactly the entries it overlaps (a
// whole page drops every entry on it, including a straddle ending on
// it, and empties its mask) and nothing on other pages, and keeps the
// mask bits of the lines that still hold cached bytes, so a later
// one-byte write over each entry still drops it.
func TestRangeInvalidate(t *testing.T) {
	const other = 0x850 // page 4, in a slot of its own
	ats := []uint32{storeMid, storeMid + 0x20, storeStraddle, other}
	for _, tc := range []struct {
		name    string
		pa, n   uint32
		dropped []uint32
	}{
		{"64 bytes before", storeMid - 64, 64, nil},
		{"from page 1 to just before", 0x300, storeMid - 0x300, nil},
		{"from page 1 over the first byte", 0x300, storeMid + 1 - 0x300, []uint32{storeMid}},
		{"between", storeMid + 0x28, storeStraddle - storeMid - 0x28, nil},
		{"over two first bytes", storeMid + 0x20, storeStraddle + 1 - storeMid - 0x20, []uint32{storeMid + 0x20, storeStraddle}},
		{"page 3 from the straddle's last byte", storeStraddle + 7, 0x800 - storeStraddle - 7, []uint32{storeStraddle}},
		{"page 3 past the straddle", storeStraddle + 8, 0x800 - storeStraddle - 8, nil},
		{"page 2", 2 * vax.PageSize, vax.PageSize, []uint32{storeMid, storeMid + 0x20, storeStraddle}},
		{"page 3", 3 * vax.PageSize, vax.PageSize, []uint32{storeStraddle}}, // the straddle's second page
	} {
		c := newStoreMachine(t, ats...)
		for _, at := range ats {
			stepAt(c, at)
		}
		c.InvalidateDecode(tc.pa, tc.n)
		if got := c.Stats.DecodeInvalidations; got != uint64(len(tc.dropped)) {
			t.Errorf("%s: %d decodes dropped, want %d", tc.name, got, len(tc.dropped))
		}
		if page := tc.pa / vax.PageSize; tc.n == vax.PageSize && c.dc.lines[page] != 0 {
			t.Errorf("%s: line mask %#x after a whole-page drop", tc.name, c.dc.lines[page])
		}
		for _, at := range ats {
			hits := c.Stats.DecodeHits
			stepAt(c, at)
			want := true
			for _, d := range tc.dropped {
				want = want && d != at
			}
			if hit := c.Stats.DecodeHits > hits; hit != want {
				t.Errorf("%s: entry at %#x hit = %t, want %t", tc.name, at, hit, want)
			}
		}
		inv := c.Stats.DecodeInvalidations
		for _, at := range ats {
			c.InvalidateDecode(at+7, 1)
		}
		if got := c.Stats.DecodeInvalidations - inv; got != uint64(len(ats)) {
			t.Errorf("%s: a later write over each entry's last byte dropped %d, want %d", tc.name, got, len(ats))
		}
	}
}

// TestTLBInvalidateDropsStraddles: TBIA and TBIS drop every
// straddling entry, including one with a single byte on its second
// page, and keep the single-page ones.
func TestTLBInvalidateDropsStraddles(t *testing.T) {
	const straddle2 = 0x9FC // page 4's last 4 bytes, in a slot of its own
	ats := []uint32{storeMid, storeStraddle1, straddle2}
	for _, inval := range []func(c *CPU){
		func(c *CPU) { c.MMU.TBIA() },
		func(c *CPU) { c.MMU.TBIS(0x600) },
	} {
		c := newStoreMachine(t, ats...)
		for _, at := range ats {
			stepAt(c, at)
		}
		inval(c)
		if got := c.Stats.DecodeInvalidations; got != 2 {
			t.Errorf("%d decodes dropped, want the 2 straddles", got)
		}
		for _, at := range ats {
			hits := c.Stats.DecodeHits
			stepAt(c, at)
			if hit := c.Stats.DecodeHits > hits; hit != (at == storeMid) {
				t.Errorf("entry at %#x hit = %t after the invalidate", at, hit)
			}
		}
	}
}

// TestStoreIntoOwnPageNotCached: an instruction that stores into its
// own page is never installed, even when the store misses its bytes;
// one that stores to another page is.
func TestStoreIntoOwnPageNotCached(t *testing.T) {
	for _, tc := range []struct {
		dst    uint32
		cached bool
	}{{0x4F0, false}, {0x8F0, true}} {
		m := mem.New(64 * 1024)
		code := []byte{0x90, 0x01, 0x9F, byte(tc.dst), byte(tc.dst >> 8), 0, 0} // MOVB #1, @#dst
		if err := m.StoreBytes(storeMid, code); err != nil {
			t.Fatal(err)
		}
		c := New(m, StandardVAX)
		c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
		stepAt(c, storeMid)
		stepAt(c, storeMid)
		if hit := c.Stats.DecodeHits == 1; hit != tc.cached {
			t.Errorf("MOVB to %#x: second execution hit = %t, want %t (%+v)", tc.dst, hit, tc.cached, c.Stats)
		}
	}
}

// TestSVPCTXDropsOverwrittenDecodes: SVPCTX saves the process context
// into the PCB past the CPU's store path, so it must drop the decodes
// it overwrites. The PCB's R0 slot lies over a cached MOVL #5, R1, and
// the saved R0 holds the bytes of MOVL #9, R1.
func TestSVPCTXDropsOverwrittenDecodes(t *testing.T) {
	const code, svpctx, stack = 0x4000, 0x2100, 0x3000 // own slots
	m := mem.New(64 * 1024)
	for _, w := range []struct {
		pa    uint32
		bytes []byte
	}{{code, []byte{0xD0, 0x05, 0x51}}, {svpctx, []byte{0x07}}} {
		if err := m.StoreBytes(w.pa, w.bytes); err != nil {
			t.Fatal(err)
		}
	}
	c := New(m, StandardVAX)
	kernel := vax.PSL(0).WithCur(vax.Kernel)
	run := func(pc uint32) {
		c.SetPSL(kernel)
		c.SetPC(pc)
		c.Step()
	}
	run(code)
	run(code)
	if c.Stats.DecodeHits != 1 {
		t.Fatalf("MOVL not cached: %+v", c.Stats)
	}
	c.PCBB = code - PCBR0
	c.R[0] = 0x005109D0 // MOVL #9, R1
	c.R[RegSP] = stack
	for _, v := range []uint32{uint32(kernel), 0x1234} { // resume PSL, PC
		if err := c.Push(v); err != nil {
			t.Fatal(err)
		}
	}
	run(svpctx)
	if got, _ := m.LoadLong(code); got != c.R[0] {
		t.Fatalf("PCB R0 slot holds %#x, want %#x", got, c.R[0])
	}
	run(code)
	if c.R[1] != 9 {
		t.Errorf("after SVPCTX rewrote it, MOVL set r1 = %d, want 9", c.R[1])
	}
}

// TestMBitWriteBackDropsDecodes caches an instruction whose immediate
// is P0 page 0's PTE (P0BR points at it), then makes the first write to
// that page. The standard VAX sets PTE<M> in hardware, rewriting the
// immediate, so the next execution must load the PTE with M set, under
// Run and one Step at a time.
func TestMBitWriteBackDropsDecodes(t *testing.T) {
	pte := vax.NewPTE(true, vax.ProtUW, false, 0x70)
	src := fmt.Sprintf(`
	.align 4
	.space 2
start:	movl #%d, r1	; the immediate is 4-aligned: P0 page 0's PTE
	tstl r2
	bneq done
	incl r2
	movl #1, @#0	; first write to P0 page 0
	brb start
done:	halt
`, uint32(pte))
	for name, budget := range map[string]uint64{"Run": 0, "Step": stepOnly} {
		rm := newRunMachine(t, src, true, nil)
		rm.c.MMU.P0BR = rm.start + 2
		rm.c.MMU.P0LR = 1
		rm.drive(t, budget)
		if want := uint32(pte.WithModify(true)); rm.c.R[1] != want {
			t.Errorf("%s: r1 = %#x, want %#x (stale decode of the PTE ran)", name, rm.c.R[1], want)
		}
		if rm.c.MMU.Stats.MSets != 1 || rm.c.Stats.DecodeInvalidations == 0 {
			t.Errorf("%s: %d M-bit write-backs, %d decodes dropped; want 1 and at least 1",
				name, rm.c.MMU.Stats.MSets, rm.c.Stats.DecodeInvalidations)
		}
	}
}
