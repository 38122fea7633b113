package cpu

import (
	"fmt"
	"testing"

	"repro/internal/vax"
)

// Tests for counting loops (bound.go, execLoop; dcache.go, link):
// which shapes the decode cache links, the closed form against
// execBound one instruction at a time, its exit counts at the int32
// edges, and fuzzed Run-vs-Step differentials.

// loopShapes are the counting-loop shapes, each placed at label l
// (loopProgram), its back edge last, r1 the counter and r0 the body's
// register.
var loopShapes = []string{
	"sobgtr r1, l",
	"sobgeq r1, l",
	"addl2 #7, r0\n\tsobgtr r1, l",
	"incl r0\n\tsobgeq r1, l",
	"incl r0\n\tbrb l",
	"addl2 #63, r0\n\tbrw l",
}

// loopProgram places a loop's instructions at label l, between HALTs.
func loopProgram(src string) string { return "back:\thalt\nl:\t" + src + "\n\thalt\n" }

// loopEntries records src's instructions from label l with one cold
// Step each, until one branches back to l or anywhere before it, or
// the machine halts (at most four), and returns the machine, l and
// their decode entries in order.
func loopEntries(t *testing.T, src string) (*machine, uint32, []*dcEntry) {
	t.Helper()
	ma := newMachine(t, StandardVAX, src)
	l := ma.prog.MustSymbol("l")
	ma.c.R[1], ma.c.R[2], ma.c.R[3] = 3, 10, 0x3000
	ma.c.SetPC(l)
	var es []*dcEntry
	for pc := l; len(es) < 4; {
		ma.c.Step()
		e := &ma.c.dc.entries[pc&(dcSlots-1)]
		if e.len == 0 || e.tag != pc {
			t.Fatalf("%q: instruction at %#x was not recorded", src, pc)
		}
		es = append(es, e)
		if pc = ma.c.PC(); pc <= l || ma.c.Halted {
			break
		}
	}
	return ma, l, es
}

// TestLoopShapes pins which shapes the decode cache links: in every
// loopShapes entry the head is loopHead and the back edge loopEdge (a
// one-instruction loop is loopHead alone), and neither carries a bound
// tag. No entry of the other shapes is linked, and each keeps the tag
// its bound form gives it. A loop straddling a page boundary is not
// even recorded.
func TestLoopShapes(t *testing.T) {
	for _, src := range loopShapes {
		_, _, es := loopEntries(t, loopProgram(src))
		head, edge := es[0], es[len(es)-1]
		if head.bound.loop != loopHead || edge != head && edge.bound.loop != loopEdge {
			t.Errorf("%q: roles %d and %d, want a linked head and back edge", src, head.bound.loop, edge.bound.loop)
		}
		for _, e := range es {
			if e.btag == e.tag || e.mtag == e.tag {
				t.Errorf("%q: a linked entry carries a bound tag", src)
			}
		}
	}
	for _, tc := range []struct{ why, prog string }{
		{"a branch elsewhere", loopProgram("sobgtr r1, back")},
		{"an AOBLSS to itself", loopProgram("aoblss r2, r1, l")},
		{"a BLBS to itself", loopProgram("blbs r1, l")},
		{"a BRB to itself", loopProgram("brb l")},
		{"a BNEQ to itself", loopProgram("bneq l")},
		{"a memory counter", loopProgram("sobgtr (r3), l")},
		{"a non-branch", loopProgram("incl r1")},
		{"a register source", loopProgram("addl2 r3, r2\n\tsobgtr r1, l")},
		{"a MULL3 body", loopProgram("mull3 #3, r2, r2\n\tsobgtr r1, l")},
		{"an ADDL3 into another register", loopProgram("addl3 #1, r2, r3\n\tsobgtr r1, l")},
		{"a body writing the counter", loopProgram("incl r1\n\tsobgtr r1, l")},
		{"a DECL body", loopProgram("decl r2\n\tsobgtr r1, l")},
		{"a SUBL2 body", loopProgram("subl2 #1, r2\n\tsobgtr r1, l")},
		{"a two-instruction body", loopProgram("incl r2\n\tincl r4\n\tsobgtr r1, l")},
		{"a BNEQ back edge", loopProgram("incl r2\n\tbneq l")},
		{"an AOBLSS back edge", loopProgram("incl r2\n\taoblss #10, r4, l")},
		{"a memory body", loopProgram("incl (r3)\n\tsobgtr r1, l")},
		{"a head on another page", "back:\thalt\n\tbrw l\n\t.space 0x1FA\nl:\tincl r2\n\tsobgtr r1, l\n\thalt\n"},
	} {
		ma, l, es := loopEntries(t, tc.prog)
		if tc.why == "a head on another page" && (l&vax.PageMask != vax.PageSize-2 || len(es) != 2) {
			t.Fatalf("layout: l at %#x with %d entries, want the last 2 bytes of a page and 2", l, len(es))
		}
		for _, e := range es {
			if e.bound.loop != loopNone {
				t.Errorf("%s: the entry at %#x is linked", tc.why, e.tag)
			}
			bound := e.bound.kind != fbNone
			if (e.btag == e.tag) != (bound && e.bound.mems == 0) || (e.mtag == e.tag) != (bound && e.bound.mems > 0) {
				t.Errorf("%s: the entry at %#x has btag %t, mtag %t", tc.why, e.tag, e.btag == e.tag, e.mtag == e.tag)
			}
		}
		if ma.c.dc.entries[l&(dcSlots-1)].bound.loop != loopNone {
			t.Errorf("%s: l is linked", tc.why)
		}
	}
	ma := newMachine(t, StandardVAX, "start:\tbrw l\n\t.space 0x1FB\nl:\tsobgtr r1, l\n\thalt\n")
	l := ma.prog.MustSymbol("l")
	if l&vax.PageMask != vax.PageSize-2 {
		t.Fatalf("layout: l at %#x, want the last 2 bytes of a page", l)
	}
	ma.c.R[1] = 3
	ma.c.SetPC(l)
	ma.c.Step()
	if e := &ma.c.dc.entries[l&(dcSlots-1)]; e.len != 0 && e.tag == l {
		t.Error("a loop straddling a page boundary was recorded")
	}
}

// TestLoopLinkFollowsEntries drops each entry of a linked loop and
// then evicts its head: the partner gets its bound tag back at once,
// and recording the entry again, whichever it was, links the loop
// again.
func TestLoopLinkFollowsEntries(t *testing.T) {
	ma, l, es := loopEntries(t, "back:\thalt\nl:\taddl2 #7, r0\nx:\tsobgtr r1, l\n\thalt\n\t.space 1017\nalias:\tincl r3\n\thalt\n")
	c, head, edge := ma.c, es[0], es[1]
	x, alias := ma.prog.MustSymbol("x"), ma.prog.MustSymbol("alias")
	if alias != l+dcSlots {
		t.Fatalf("layout: alias at %#x, want l+%d", alias, dcSlots)
	}
	linked := func(why string) {
		t.Helper()
		if head.tag != l || head.bound.loop != loopHead || edge.bound.loop != loopEdge {
			t.Fatalf("%s: head slot tag %#x, roles %d and %d; want the loop linked", why, head.tag, head.bound.loop, edge.bound.loop)
		}
	}
	unlinked := func(why string, partner *dcEntry) {
		t.Helper()
		if partner.bound.loop != loopNone || partner.btag != partner.tag {
			t.Fatalf("%s: the partner at %#x has role %d, btag set %t", why, partner.tag, partner.bound.loop, partner.btag == partner.tag)
		}
	}
	step := func(pc uint32) {
		c.R[1] = 3
		c.SetPC(pc)
		c.Step()
	}
	linked("recorded")
	c.InvalidateDecode(l, 1)
	unlinked("head dropped", edge)
	step(l)
	linked("head recorded again")
	c.InvalidateDecode(x, 1)
	unlinked("back edge dropped", head)
	step(x)
	linked("back edge recorded again")
	step(alias)
	if head.tag != alias {
		t.Fatalf("alias did not evict the head: slot tag %#x", head.tag)
	}
	unlinked("head evicted", edge)
	step(l)
	linked("head recorded after eviction")
}

// loopState is what execLoop may change.
type loopState struct {
	r      [16]uint32
	psl    vax.PSL
	cycles uint64
}

// TestLoopMatchesExecBound runs each loop shape in closed form and one
// execBound at a time from identical states: counters 0, 1, 2,
// 0x7FFFFFFF, 0x80000000 and 0xFFFFFFFF, body registers about to cross
// zero and 0x7FFFFFFF, every NZVC on entry, and budgets and deadlines
// that cut the loop short. The reference takes instructions as the run
// loop takes bound instructions: the first always, then each one the
// budget allows that starts below the deadline, until a back edge
// falls through. The closed form must apply the whole rounds of those;
// when they hold fewer than two instructions, execLoop must change
// nothing and return 0.
func TestLoopMatchesExecBound(t *testing.T) {
	counters := []uint32{0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF}
	bodies := []uint32{0, 0x7FFFFFFE, 0xFFFFFFFD}
	budgets := []uint64{1, 2, 3, 4, 7, 300} // 1: Step, which must decline
	deadlines := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 101, ^uint64(0)}
	const start = 1000 // Cycles on entry
	for _, src := range loopShapes {
		t.Run(src, func(t *testing.T) {
			ma, l, es := loopEntries(t, loopProgram(src))
			c := ma.c
			dev := newPeriodDevice(0, 0, 1)
			c.AddDevice(dev)
			set := func(ctr, r0, cc uint32) {
				for i := range c.R {
					c.R[i] = 0xE1D2C3B4 ^ uint32(i)*0x01010101
				}
				c.R[0], c.R[1], c.R[RegPC] = r0, ctr, l
				c.psl = c.psl&^vax.PSL(vax.PSLCC) | vax.PSL(cc)
				c.Cycles = start
			}
			get := func() loopState { return loopState{c.R, c.psl, c.Cycles} }
			per := uint64(len(es))
			for _, ctr := range counters {
				for _, r0 := range bodies {
					for cc := uint32(0); cc < 16; cc++ {
						set(ctr, r0, cc)
						before := get()
						for _, budget := range budgets {
							for _, d := range deadlines {
								set(ctr, r0, cc)
								end := start + d
								if end < start {
									end = ^uint64(0)
								}
								var n, rounds uint64
								want := before
							ref:
								for pc := l; pc == l; {
									for _, e := range es {
										if n > 0 && (n == budget || c.Cycles >= end) {
											break ref
										}
										pc = c.execBound(&e.bound, pc)
										n++
									}
									rounds++
									want = get()
								}
								if rounds*per < 2 {
									want, rounds = before, 0
								}
								set(ctr, r0, cc)
								dev.left = d
								got := c.execLoop(&es[0].bound, l, l, budget)
								if st := get(); got != rounds*per || st != want {
									t.Fatalf("r1=%#x r0=%#x nzvc=%04b budget %d deadline %d: closed form %d instructions, execBound %d\n got  %+v\n want %+v",
										ctr, r0, cc, budget, d, got, rounds*per, st, want)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestLoopExits checks execLoop's instruction counts and final
// registers and condition codes where one instruction at a time would
// take billions of steps: with no deadline and no budget a SOB loop
// runs to its exit in one call. A one-instruction loop whose first
// iteration falls through declines; a loop with a body applies that
// one round.
func TestLoopExits(t *testing.T) {
	for _, tc := range []struct {
		src    string
		ctr    uint32
		r0in   uint32 // the body's register on entry
		n      uint64 // instructions; 0: declined
		r1, r0 uint32
		c      bool // C on exit: kept (set on entry) with no body, the last ADD's carry with one
	}{
		{"sobgtr r1, l", 2, 0, 2, 0, 0, true},
		{"sobgtr r1, l", 0x7FFFFFFF, 0, 0x7FFFFFFF, 0, 0, true},
		{"sobgtr r1, l", 0x80000000, 0, 1 << 31, 0, 0, true},
		{"sobgtr r1, l", 1, 0, 0, 0, 0, true},
		{"sobgtr r1, l", 0, 0, 0, 0, 0, true},
		{"sobgtr r1, l", 0xFFFFFFFF, 0, 0, 0, 0, true},
		{"sobgeq r1, l", 1, 0, 2, 0xFFFFFFFF, 0, true},
		{"sobgeq r1, l", 0x7FFFFFFF, 0, 1 << 31, 0xFFFFFFFF, 0, true},
		{"sobgeq r1, l", 0x80000000, 0, 1<<31 + 1, 0xFFFFFFFF, 0, true},
		{"sobgeq r1, l", 0, 0, 0, 0, 0, true},
		{"sobgeq r1, l", 0xFFFFFFFF, 0, 0, 0, 0, true},
		{"addl2 #7, r0\n\tsobgtr r1, l", 0x80000000, 0, 1 << 32, 0, 0x80000000, false},
		{"addl2 #7, r0\n\tsobgtr r1, l", 0x7FFFFFFF, 0, 0xFFFFFFFE, 0, 0x7FFFFFF9, false},
		{"addl2 #63, r0\n\tsobgtr r1, l", 1, 0, 2, 0, 63, false},
		{"incl r0\n\tsobgtr r1, l", 0xFFFFFFFF, 0, 2, 0xFFFFFFFE, 1, false},
		{"incl r0\n\tsobgtr r1, l", 2, 0xFFFFFFFE, 4, 0, 0, true},
		{"incl r0\n\tsobgeq r1, l", 0x80000000, 0, 1<<32 + 2, 0xFFFFFFFF, 0x80000001, false},
	} {
		ma, l, es := loopEntries(t, loopProgram(tc.src))
		c := ma.c
		c.R[0], c.R[1], c.R[RegPC] = tc.r0in, tc.ctr, l
		c.Cycles = 0
		c.psl |= vax.PSL(vax.PSLC | vax.PSLV)
		n := c.execLoop(&es[0].bound, l, l, ^uint64(0))
		if n != tc.n {
			t.Errorf("%s from %#x: %d instructions, want %d", tc.src, tc.ctr, n, tc.n)
			continue
		}
		if n == 0 {
			continue
		}
		edge := es[len(es)-1]
		psl := uint32(c.PSL())
		if c.R[1] != tc.r1 || c.R[0] != tc.r0 || c.PC() != edge.tag+uint32(edge.bound.next) || c.Cycles != n*CostBase ||
			psl&vax.PSLZ != 0 != (tc.r1 == 0) || psl&vax.PSLN != 0 != (int32(tc.r1) < 0) ||
			psl&vax.PSLV != 0 || psl&vax.PSLC != 0 != tc.c {
			t.Errorf("%s from %#x: r1 %#x r0 %#x pc %#x cycles %d psl %#x; want r1 %#x r0 %#x, the fall-through, %d cycles, V clear and C %t",
				tc.src, tc.ctr, c.R[1], c.R[0], c.PC(), c.Cycles, psl, tc.r1, tc.r0, n*CostBase, tc.c)
		}
	}
	// A BRB spin never exits: with no deadline and no budget it stops
	// at the last round whose cycles fit in 64 bits, 2^62-1 rounds of 4,
	// which leave r0 at 2^62-1 mod 2^32.
	ma, l, es := loopEntries(t, loopProgram("incl r0\n\tbrb l"))
	c := ma.c
	c.R[0], c.Cycles = 0, 0
	const rounds = 1<<62 - 1
	if n := c.execLoop(&es[0].bound, l, l, ^uint64(0)); n != 2*rounds || c.Cycles != 4*rounds ||
		c.R[0] != 0xFFFFFFFF || c.PC() != l || uint32(c.PSL())&vax.PSLCC != vax.PSLN {
		t.Errorf("BRB spin: %d instructions, %d cycles, r0 %#x, pc %#x, PSL %s; want %d, %d, %#x, l and N",
			n, c.Cycles, c.R[0], c.PC(), c.PSL(), 2*rounds, uint64(4*rounds), uint32(0xFFFFFFFF))
	}
}

// loopFuzzDiff runs src, whose ISR (at label isr, vector 0xC4) counts
// deliveries in r5, under Run(budget) calls and one Step at a time, with
// a device of the given period (0: none), and compares them after the
// same number of steps, at most 3000: registers, PSL, cycles,
// cpu.Stats, mmu.Stats, the interrupt delivery points and the device.
func loopFuzzDiff(t *testing.T, src string, budget uint64, period uint16, mapped bool) {
	const loopFuzzSteps = 3000
	build := func() *runMachine {
		rm := newRunMachine(t, src, mapped, map[vax.Vector]string{0xC4: "isr"})
		if period != 0 {
			rm.dev = newPeriodDevice(20, 0xC4, uint64(period))
			rm.c.AddDevice(rm.dev)
		}
		return rm
	}
	run, step := build(), build()
	var runSteps, stepSteps uint64
	for !run.c.Halted && runSteps < loopFuzzSteps {
		runSteps += run.c.Run(min(budget, loopFuzzSteps-runSteps))
	}
	for !step.c.Halted && stepSteps < loopFuzzSteps {
		step.c.Step()
		stepSteps++
	}
	diffRun(t, run, step, runSteps, stepSteps)
	if t.Failed() {
		t.Logf("budget %d, period %d, mapped %t:\n%s", budget, period, mapped, src)
	}
}

// FuzzOneInstructionLoop is a Run-versus-Step differential for the
// closed form of one-instruction loops. The input chooses the loop
// kind, the counter, the Run budget, the period of a device whose
// interrupt the ISR counts (0: no device), whether the ISR also clears
// the counter, which ends the loop as a wait, and the mapping.
func FuzzOneInstructionLoop(f *testing.F) {
	for i, ctr := range []uint32{0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF} {
		for geq := range 2 {
			f.Add(geq == 1, ctr, uint16(i*50+1), uint16(i*29), i%2 == 0, i%2 == 1)
		}
	}
	f.Fuzz(func(t *testing.T, geq bool, ctr uint32, budget, period uint16, wait, mapped bool) {
		loop, clear := "sobgtr", ""
		if geq {
			loop = "sobgeq"
		}
		if wait {
			clear = "clrl r1"
		}
		loopFuzzDiff(t, fmt.Sprintf(`
start:	movl #%d, r1
l:	%s r1, l
	halt
	.align 4
isr:	incl r5
	%s
	rei
`, ctr, loop, clear), uint64(budget)+1, period, mapped)
	})
}

// FuzzCountingLoop is the Run-versus-Step differential for every
// counting-loop shape. The input chooses the body (none, ADDL2 #k or
// INCL, on r0), the literal k, the back edge (SOBGTR, SOBGEQ or BRB),
// the counter and r0 on entry, the Run budget, the period of a device
// whose interrupt the ISR counts (0: no device), the delivery on which
// the ISR ends the loop by rewriting the saved PC (0: never), and the
// mapping. The ISR also sums the saved PSLs in r9, so the condition
// codes at every delivery are compared too.
func FuzzCountingLoop(f *testing.F) {
	for i, ctr := range []uint32{0, 1, 300, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF} {
		for body := range 3 {
			for edge := range 3 {
				f.Add(uint8(body), uint8(i*13+7), uint8(edge), ctr, uint32(0x7FFFFFF0+i*0x40000000),
					uint16(i*50+body*7+edge), uint16(i*29+edge*3), uint8(i+body), (i+edge)%2 == 0)
			}
		}
	}
	f.Fuzz(func(t *testing.T, body, k, edge uint8, ctr, r0 uint32, budget, period uint16, stop uint8, mapped bool) {
		head := [3]string{"", fmt.Sprintf("addl2 #%d, r0", k%64), "incl r0"}[body%3]
		back := [3]string{"sobgtr r1, l", "sobgeq r1, l", "brb l"}[edge%3]
		loopFuzzDiff(t, fmt.Sprintf(`
start:	movl #%d, r1
	movl #%d, r0
l:	%s
	%s
done:	halt
	.align 4
isr:	incl r5
	addl2 4(sp), r9
	cmpl r5, #%d
	bneq out
	movl #done, (sp)
out:	rei
`, ctr, r0, head, back, stop), uint64(budget)+1, period, mapped)
	})
}
