package cpu

import (
	"fmt"
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

// boundEdges are the operand values every bound shape is run against.
var boundEdges = []uint32{0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF}

// TestBoundMatchesGenericReplay records each bound shape once, then
// replays its entry both ways from identical states: every pair of
// edge values in R1/R2 and every NZVC combination on entry. Registers
// (PC included), PSL and cycles must agree.
func TestBoundMatchesGenericReplay(t *testing.T) {
	cases := []struct {
		src  string // instruction at label start; back/fwd are branch targets
		kind uint8
	}{
		{"movl r1, r2", fbMovl},
		{"movl #63, r2", fbMovl},
		{"movl #0x80000000, r2", fbMovl},
		{"clrl r2", fbClrl},
		{"tstl r1", fbTstl},
		{"tstl #0", fbTstl},
		{"addl2 r1, r2", fbAddl2},
		{"addl2 r2, r2", fbAddl2},
		{"addl2 #0x7FFFFFFF, r2", fbAddl2},
		{"subl2 r1, r2", fbSubl2},
		{"subl2 r2, r2", fbSubl2},
		{"bisl2 r1, r2", fbBisl2},
		{"bicl2 r1, r2", fbBicl2},
		{"xorl2 r1, r2", fbXorl2},
		{"mull2 r1, r2", fbMull2},
		{"mull2 r2, r2", fbMull2},
		{"incl r2", fbIncl},
		{"decl r2", fbDecl},
		{"cmpl r1, r2", fbCmpl},
		{"cmpl #1, r2", fbCmpl},
		{"brb back", fbBr},
		{"brb fwd", fbBr},
		{"brw back", fbBr},
		{"sobgtr r1, back", fbSobgtr},
		{"sobgeq r1, back", fbSobgeq},
		{"sobgtr r1, fwd", fbSobgtr},
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
	for _, tc := range cases {
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
				c.R = [16]uint32{}
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
			for _, a := range boundEdges {
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
