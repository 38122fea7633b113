package cpu

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/vax"
)

// Differential tests for pre-bound replay (sbBind/execBound): a bound
// decode entry must leave exactly the state its generic handler leaves
// when replaying the same entry through the cursor, successors must
// follow the live PC rather than the virtual address the entry was
// recorded at, and stores into bound code must take effect on the next
// execution.

// boundEdges are the source values every bound shape is run against:
// the size boundaries, then byte and word sources whose register holds
// high bits that a byte or word access must ignore (or keep, when the
// register is the destination).
var boundEdges = []uint32{
	0, 1, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
	0xA5A5A57F, 0x5A5A5A80, 0xC3C37FFF, 0x3C3C8000,
}

// ashlCounts are the ASHL shift counts run from a register, each also
// with garbage above the count byte.
func ashlCounts() []uint32 {
	var vs []uint32
	for _, n := range []int32{-128, -33, -32, -31, -1, 0, 1, 31, 32, 33, 127} {
		vs = append(vs, uint32(n), 0x5A5A5A00|uint32(uint8(n)))
	}
	return vs
}

// boundCases are the bound shapes the differential test replays both
// ways: every bound row, with register and literal sources, aliased
// operands and sized destinations.
var boundCases = []struct {
	src  string // instruction at label start; back/fwd are branch targets
	kind uint8
}{
	{"movl r1, r2", fbMov},
	{"movl #63, r2", fbMov},
	{"movl #0x80000000, r2", fbMov},
	{"movw r1, r2", fbMov},
	{"movw #0x8000, r2", fbMov},
	{"movb r1, r2", fbMov},
	{"movb #0x80, r2", fbMov},
	{"movzbl r1, r2", fbMov},
	{"movzbl #0xFF, r2", fbMov},
	{"movzwl r1, r2", fbMov},
	{"clrl r2", fbMov},
	{"clrw r2", fbMov},
	{"clrb r2", fbMov},
	{"tstl r1", fbTst},
	{"tstl #0", fbTst},
	{"tstw r1", fbTst},
	{"tstb r1", fbTst},
	{"tstb #0x80", fbTst},
	{"mnegl r1, r2", fbMneg},
	{"mnegl #5, r2", fbMneg},
	{"mcomb r1, r2", fbMcom},
	{"mcomb #0x0F, r2", fbMcom},
	{"addl2 r1, r2", fbAdd},
	{"addl2 r2, r2", fbAdd},
	{"addl2 #0x7FFFFFFF, r2", fbAdd},
	{"addl3 r1, r2, r3", fbAdd},
	{"addl3 r1, r2, r2", fbAdd},
	{"addl3 r1, r1, r1", fbAdd},
	{"addl3 #1, r2, r3", fbAdd},
	{"subl2 r1, r2", fbSub},
	{"subl2 r2, r2", fbSub},
	{"subl3 r1, r2, r3", fbSub},
	{"subl3 r2, #5, r1", fbSub},
	{"bisl2 r1, r2", fbBis},
	{"bisl3 r1, r2, r3", fbBis},
	{"bicl2 r1, r2", fbBic},
	{"bicl3 #0xF0, r2, r3", fbBic},
	{"xorl2 r1, r2", fbXor},
	{"xorl3 r1, r2, r3", fbXor},
	{"mull2 r1, r2", fbMul},
	{"mull2 r2, r2", fbMul},
	{"mull3 r1, r2, r3", fbMul},
	{"mull3 r2, #3, r4", fbMul},
	{"incl r2", fbAdd},
	{"decl r2", fbSub},
	{"ashl r1, r2, r3", fbAsh},
	{"ashl r1, r2, r2", fbAsh},
	{"ashl r1, r1, r1", fbAsh},
	{"ashl #1, r2, r2", fbAsh},
	{"ashl #31, r2, r3", fbAsh},
	{"ashl #32, r2, r3", fbAsh},
	{"ashl #33, r2, r3", fbAsh},
	{"ashl #-1, r2, r3", fbAsh},
	{"ashl #-32, r2, r3", fbAsh},
	{"ashl #-128, r2, r3", fbAsh},
	{"ashl #127, r2, r3", fbAsh},
	{"ashl #1, #0x40000000, r3", fbAsh},
	{"cvtbl r1, r2", fbCvt},
	{"cvtbl #0x80, r2", fbCvt},
	{"cvtbw r1, r2", fbCvt},
	{"cvtwl r1, r2", fbCvt},
	{"cvtwb r1, r2", fbCvt},
	{"cvtlb r1, r2", fbCvt},
	{"cvtlb #0x12345, r2", fbCvt},
	{"cvtlw r1, r2", fbCvt},
	{"cmpl r1, r2", fbCmp},
	{"cmpl #1, r2", fbCmp},
	{"cmpl r1, #1", fbCmp},
	{"cmpl r1, #0x80000000", fbCmp},
	{"cmpw r1, r2", fbCmp},
	{"cmpw #0x8000, r2", fbCmp},
	{"cmpb r1, r2", fbCmp},
	{"cmpb r1, #0x80", fbCmp},
	{"bitl r1, r2", fbBit},
	{"bitl #1, r2", fbBit},
	{"bitl r1, #0x80000000", fbBit},
	{"brb back", fbBr},
	{"brb fwd", fbBr},
	{"brw back", fbBr},
	{"sobgtr r1, back", fbSobgtr},
	{"sobgeq r1, back", fbSobgeq},
	{"sobgtr r1, fwd", fbSobgtr},
	{"sobgeq r1, fwd", fbSobgeq},
	{"aoblss r1, r2, back", fbAoblss},
	{"aoblss #5, r2, fwd", fbAoblss},
	{"aobleq r1, r2, back", fbAobleq},
	{"aobleq r2, r2, fwd", fbAobleq},
	{"blbs r1, fwd", fbBlbs},
	{"blbs #1, back", fbBlbs},
	{"blbc r1, back", fbBlbc},
	{"bneq fwd", fbBcond},
	{"beql back", fbBcond},
	{"bgtr fwd", fbBcond},
	{"bleq fwd", fbBcond},
	{"bgeq fwd", fbBcond},
	{"blss fwd", fbBcond},
	{"bgtru fwd", fbBcond},
	{"blequ fwd", fbBcond},
	{"bvc fwd", fbBcond},
	{"bvs fwd", fbBcond},
	{"bcc fwd", fbBcond},
	{"bcs back", fbBcond},
}

// TestBoundMatchesGenericReplay records each bound shape once, then
// replays its entry both ways from identical states: every pair of
// edge values in R1/R2 (shift counts in R1 for "ashl r1, ..."), the
// other registers holding a fixed pattern, and every NZVC combination
// on entry. R0-R15 (PC included), PSL and cycles must agree.
func TestBoundMatchesGenericReplay(t *testing.T) {
	for _, tc := range boundCases {
		t.Run(tc.src, func(t *testing.T) {
			ma := newMachine(t, StandardVAX, "back:\thalt\nstart:\t"+tc.src+"\n\thalt\nfwd:\thalt\n")
			c := ma.c
			start := ma.prog.MustSymbol("start")
			c.Step() // cold: records and binds the entry (MMU off, so PA = VA)
			e := &c.dc.entries[start&(dcSlots-1)]
			if !e.valid || e.tag != start {
				t.Fatal("instruction was not recorded in the decode cache")
			}
			if e.bound.kind != tc.kind {
				t.Fatalf("bound kind = %d, want %d", e.bound.kind, tc.kind)
			}
			generic := *e
			generic.bound = sbBound{}

			type state struct {
				r      [16]uint32
				psl    vax.PSL
				cycles uint64
			}
			run := func(ent *dcEntry, a, b, cc uint32) state {
				for i := range c.R {
					c.R[i] = 0xE1D2C3B4 ^ uint32(i)*0x01010101
				}
				c.R[1], c.R[2], c.R[RegPC] = a, b, start
				c.psl = c.psl&^vax.PSL(vax.PSLN|vax.PSLZ|vax.PSLV|vax.PSLC) | vax.PSL(cc)
				c.Cycles = 0
				c.regSnapshot = c.R
				c.instStartPC = start
				if err := c.execReplay(ent); err != nil {
					t.Fatalf("replay: %v", err)
				}
				return state{c.R, c.psl, c.Cycles}
			}
			as := boundEdges
			if strings.HasPrefix(tc.src, "ashl r1") {
				as = ashlCounts()
			}
			for _, a := range as {
				for _, b := range boundEdges {
					for cc := uint32(0); cc < 16; cc++ {
						got, want := run(e, a, b, cc), run(&generic, a, b, cc)
						if got != want {
							t.Fatalf("r1=%#x r2=%#x nzvc=%04b:\n bound   %+v\n generic %+v",
								a, b, cc, got, want)
						}
					}
				}
			}
		})
	}
}

// TestBindRows pins which dispatch rows bind and in which shapes: the
// register/literal shapes of boundCases bind to their kinds, while DIVL
// (a zero divisor traps), literal destinations (a reserved-operand
// fault) and every memory or index operand replay through the handler.
// The rows whose dispatch entries carry a bound kind must be exactly
// those boundCases exercise.
func TestBindRows(t *testing.T) {
	cases := append([]struct {
		src  string
		kind uint8
	}{
		{"divl2 r1, r2", fbNone},
		{"divl3 #2, r1, r2", fbNone},
		{".byte 0xC0, 0x51, 0x02 ; addl2 r1, #2: literal destination", fbNone},
		{"addl2 (r1), r2", fbNone},
		{"addl3 r1, r2, (r3)", fbNone},
		{"mull3 4(r1), r2, r3", fbNone},
		{"ashl #1, (r1)+, r2", fbNone},
		{"movl r1, -(sp)", fbNone},
		{".byte 0x90, 0x42, 0x61, 0x53 ; movb (r1)[r2], r3", fbNone},
		{"cmpl r1, @#0x3000", fbNone},
		{"cvtbl (r1), r2", fbNone},
		{"sobgtr (r1), fwd", fbNone},
		{"blbs (r1), fwd", fbNone},
		{"clrl (r1)", fbNone},
		{"pushl r1", fbNone},
		{"movab (r1), r2", fbNone},
	}, boundCases...)
	boundOps := map[uint16]bool{}
	for _, tc := range cases {
		ma := newMachine(t, StandardVAX, "back:\thalt\nstart:\t"+tc.src+"\n\thalt\nfwd:\thalt\n")
		c := ma.c
		start := ma.prog.MustSymbol("start")
		c.R[1], c.R[2], c.R[3] = 0x3000, 1, 0x3100
		c.Step()
		e := &c.dc.entries[start&(dcSlots-1)]
		if !e.valid || e.tag != start {
			t.Errorf("%s: instruction was not recorded in the decode cache", tc.src)
			continue
		}
		if e.bound.kind != tc.kind {
			t.Errorf("%s: bound kind = %d, want %d", tc.src, e.bound.kind, tc.kind)
		}
		if tc.kind != fbNone {
			boundOps[e.ie.op] = true
		}
	}
	for _, table := range [][256]*instrEntry{dispatchOne, dispatchStdFD, dispatchModFD} {
		for _, row := range table {
			if row != nil && (row.bind != fbNone) != boundOps[row.op] {
				t.Errorf("opcode %#x: row binds %v, boundCases bind %v",
					row.op, row.bind != fbNone, boundOps[row.op])
			}
		}
	}
}

// TestBoundAliasedCodePage maps one physical code page at two system
// virtual addresses and runs the same SOBGTR/BRB loop at both. The
// second run replays entries recorded (and bound) under the first
// mapping, so its successors must come from the live PC.
func TestBoundAliasedCodePage(t *testing.T) {
	const (
		spt       = 0x1000
		codeFrame = 20
		va1Page   = 2
		va2Page   = 4
	)
	va1 := uint32(vax.SystemBase) + va1Page*vax.PageSize
	va2 := uint32(vax.SystemBase) + va2Page*vax.PageSize
	prog, err := asm.Assemble(`
start:	movl #20, r1
loop:	sobgtr r1, loop
	brb over
	incl r4
over:	halt
`, va1)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.New(256 * 1024)
	if err := m.StoreBytes(codeFrame*vax.PageSize, prog.Code); err != nil {
		t.Fatal(err)
	}
	frames := []uint32{16, 17, codeFrame, 21, codeFrame}
	for i, frame := range frames {
		pte := vax.NewPTE(true, vax.ProtUW, true, frame)
		if err := m.StoreLong(spt+4*uint32(i), uint32(pte)); err != nil {
			t.Fatal(err)
		}
	}
	c := New(m, StandardVAX)
	c.MMU.SBR = spt
	c.MMU.SLR = uint32(len(frames))
	c.MMU.Enabled = true
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))

	run := func(va uint32) uint32 {
		t.Helper()
		c.ClearHalt()
		c.SetPC(va)
		c.Run(1000)
		if !c.Halted {
			t.Fatalf("run at %#x did not halt; pc=%#x", va, c.PC())
		}
		if c.R[1] != 0 || c.R[4] != 0 {
			t.Fatalf("run at %#x: r1=%d r4=%d, want 0 0", va, c.R[1], c.R[4])
		}
		return c.PC() - va
	}
	end1 := run(va1)
	misses := c.Stats.DecodeMisses
	hits := c.Stats.DecodeHits
	end2 := run(va2)
	if end2 != end1 {
		t.Fatalf("halt offset at second mapping %#x, want %#x (successor left the live page)", end2, end1)
	}
	// The first fetch at the new mapping walks its page into the TLB
	// and misses; every later instruction replays the first run's
	// entries.
	if d := c.Stats.DecodeMisses - misses; d > 1 {
		t.Errorf("second mapping missed %d times, want at most 1", d)
	}
	if c.Stats.DecodeHits == hits {
		t.Error("second mapping produced no decode hits")
	}
}

// TestBoundSelfModifying rewrites a bound MOVL's source register byte
// after the instruction has replayed in bound form: the next tier-off
// execution must read the new register.
func TestBoundSelfModifying(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	movl #5, r3
	movl #9, r4
	clrl r2
again:	movl #3, r5
patch:	movl r3, r1
	sobgtr r5, patch
	tstl r2
	bneq done
	incl r2
	movb #0x54, @#patch+1	; register specifier r3 -> r4
	brb again
done:	halt
`)
	ma.run(t, 10000)
	if ma.c.R[1] != 9 {
		t.Fatalf("r1 = %d, want 9 (stale bound MOVL executed)", ma.c.R[1])
	}
}

// TestBoundSelfModifyingBranch rewrites a bound SOBGTR's displacement
// so the loop's target moves two bytes back, onto an INCL R3: the
// second pass must take the new edge.
func TestBoundSelfModifyingBranch(t *testing.T) {
	// Assemble once with a placeholder to learn the layout (the byte
	// immediate keeps its length whatever the value), then patch in the
	// real displacement: loop's old target minus two.
	src := func(disp int) string {
		return fmt.Sprintf(`
start:	movl #4, r1
	brb loop
alt:	incl r3
loop:	incl r0
sob:	sobgtr r1, loop
	tstl r2
	bneq done
	incl r2
	movb #%d, @#sob+2
	movl #4, r1
	brb sob
done:	halt
`, disp)
	}
	probe := newMachine(t, StandardVAX, src(255))
	p := probe.prog
	oldDisp := int(p.MustSymbol("loop")) - int(p.MustSymbol("sob")+3)
	ma := newMachine(t, StandardVAX, src(int(uint8(int8(oldDisp-2)))))
	ma.run(t, 10000)
	// Pass 1: four INCL R0 via loop. Pass 2 enters at the SOBGTR and
	// takes its patched edge three times, each through alt then loop.
	if ma.c.R[3] != 3 || ma.c.R[0] != 7 {
		t.Fatalf("r3=%d r0=%d, want 3 7 (stale bound SOBGTR displacement)", ma.c.R[3], ma.c.R[0])
	}
}
