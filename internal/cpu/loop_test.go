package cpu

import (
	"fmt"
	"testing"

	"repro/internal/vax"
)

// Tests for one-instruction loops (bound.go, execLoop): which bound
// shapes are loops, the closed form against execBound one iteration at
// a time, its exit counts at the int32 edges, and a fuzzed Run-vs-Step
// differential.

// loopShapes are the one-instruction loop shapes, each at label l and
// branching to it, with r1 the counter.
var loopShapes = []struct {
	src  string
	kind uint8
}{
	{"sobgtr r1, l", fbSobgtr},
	{"sobgeq r1, l", fbSobgeq},
}

// loopEntry records src's instruction at label l with one cold Step
// and returns the machine, l and its decode entry.
func loopEntry(t *testing.T, src string) (*machine, uint32, *dcEntry) {
	t.Helper()
	ma := newMachine(t, StandardVAX, src)
	l := ma.prog.MustSymbol("l")
	ma.c.R[1], ma.c.R[2], ma.c.R[3] = 3, 10, 0x3000
	ma.c.SetPC(l)
	ma.c.Step()
	e := &ma.c.dc.entries[l&(dcSlots-1)]
	if e.len == 0 || e.tag != l {
		t.Fatalf("%q: instruction at l was not recorded", src)
	}
	return ma, l, e
}

// TestLoopShapes pins which shapes are one-instruction loops: every
// loopShapes entry is, and carries neither bound tag, while a branch
// elsewhere, a branch of another kind to itself, a memory operand and
// a non-branch are not. A loop straddling a page boundary is not even
// recorded.
func TestLoopShapes(t *testing.T) {
	for _, sh := range loopShapes {
		_, l, e := loopEntry(t, "back:\thalt\nl:\t"+sh.src+"\n\thalt\n")
		if e.bound.kind != sh.kind || !e.bound.loop {
			t.Errorf("%s: kind %d loop %t, want kind %d and a loop", sh.src, e.bound.kind, e.bound.loop, sh.kind)
		}
		if e.btag == l || e.mtag == l {
			t.Errorf("%s: a loop entry carries a bound tag", sh.src)
		}
	}
	for _, tc := range []struct{ why, src string }{
		{"a branch elsewhere", "back:\thalt\nl:\tsobgtr r1, back\n\thalt\n"},
		{"an AOBLSS to itself", "back:\thalt\nl:\taoblss r2, r1, l\n\thalt\n"},
		{"a BLBS to itself", "back:\thalt\nl:\tblbs r1, l\n\thalt\n"},
		{"a BRB to itself", "back:\thalt\nl:\tbrb l\n\thalt\n"},
		{"a BNEQ to itself", "back:\thalt\nl:\tbneq l\n\thalt\n"},
		{"a memory operand", "back:\thalt\nl:\tsobgtr (r3), l\n\thalt\n"},
		{"a non-branch", "back:\thalt\nl:\tincl r1\n\thalt\n"},
	} {
		_, l, e := loopEntry(t, tc.src)
		if e.bound.loop {
			t.Errorf("%s is marked a loop", tc.why)
		}
		if bound := e.bound.kind != fbNone; (e.btag == l) != bound {
			t.Errorf("%s: btag set %t, want %t", tc.why, e.btag == l, bound)
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

// loopState is what execLoop may change.
type loopState struct {
	r      [16]uint32
	psl    vax.PSL
	cycles uint64
}

// TestLoopMatchesExecBound runs each loop shape in closed form and one
// execBound at a time from identical states: counters 0, 1, 2,
// 0x7FFFFFFF, 0x80000000 and 0xFFFFFFFF, every NZVC on entry, and
// budgets and deadlines that cut the loop short. The reference takes
// iterations as the run loop takes bound instructions: the first
// always, then each one the budget allows that starts below the
// deadline, until one falls through. When it takes fewer than two,
// execLoop must change nothing and return 0.
func TestLoopMatchesExecBound(t *testing.T) {
	counters := []uint32{0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF}
	budgets := []uint64{1, 2, 3, 7, 300} // 1: Step, which must decline
	deadlines := []uint64{0, 1, 2, 3, 5, 101, ^uint64(0)}
	const start = 1000 // Cycles on entry
	for _, sh := range loopShapes {
		t.Run(sh.src, func(t *testing.T) {
			ma, l, e := loopEntry(t, "back:\thalt\nl:\t"+sh.src+"\n\thalt\n")
			c := ma.c
			dev := newPeriodDevice(0, 0, 1)
			c.AddDevice(dev)
			set := func(ctr, cc uint32) {
				for i := range c.R {
					c.R[i] = 0xE1D2C3B4 ^ uint32(i)*0x01010101
				}
				c.R[1], c.R[RegPC] = ctr, l
				c.psl = c.psl&^vax.PSL(vax.PSLCC) | vax.PSL(cc)
				c.Cycles = start
			}
			get := func() loopState { return loopState{c.R, c.psl, c.Cycles} }
			for _, ctr := range counters {
				for cc := uint32(0); cc < 16; cc++ {
					set(ctr, cc)
					before := get()
					for _, budget := range budgets {
						for _, d := range deadlines {
							set(ctr, cc)
							end := start + d
							if end < start {
								end = ^uint64(0)
							}
							var m uint64
							for pc := l; m == 0 || m < budget && c.Cycles < end && pc == l; m++ {
								pc = c.execBound(&e.bound, l)
							}
							want := get()
							if m < 2 {
								want, m = before, 0
							}
							set(ctr, cc)
							dev.left = d
							n := c.execLoop(&e.bound, l, budget)
							if got := get(); n != m || got != want {
								t.Fatalf("r1=%#x nzvc=%04b budget %d deadline %d: closed form %d iterations, execBound %d\n got  %+v\n want %+v",
									ctr, cc, budget, d, n, m, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestLoopExits checks execLoop's iteration counts and final counters
// where per-iteration execution would take billions of steps: with no
// deadline and no budget a loop runs to its exit in one call.
func TestLoopExits(t *testing.T) {
	for _, tc := range []struct {
		src string
		ctr uint32
		n   uint64 // 0: the first iteration falls through
		r1  uint32
	}{
		{"sobgtr r1, l", 2, 2, 0},
		{"sobgtr r1, l", 0x7FFFFFFF, 0x7FFFFFFF, 0},
		{"sobgtr r1, l", 0x80000000, 1 << 31, 0},
		{"sobgtr r1, l", 1, 0, 0},
		{"sobgtr r1, l", 0, 0, 0},
		{"sobgtr r1, l", 0xFFFFFFFF, 0, 0},
		{"sobgeq r1, l", 1, 2, 0xFFFFFFFF},
		{"sobgeq r1, l", 0x7FFFFFFF, 1 << 31, 0xFFFFFFFF},
		{"sobgeq r1, l", 0x80000000, 1<<31 + 1, 0xFFFFFFFF},
		{"sobgeq r1, l", 0, 0, 0},
		{"sobgeq r1, l", 0xFFFFFFFF, 0, 0},
	} {
		ma, l, e := loopEntry(t, "back:\thalt\nl:\t"+tc.src+"\n\thalt\n")
		c := ma.c
		c.R[1], c.R[RegPC] = tc.ctr, l
		c.Cycles = 0
		c.psl |= vax.PSL(vax.PSLC | vax.PSLV)
		n := c.execLoop(&e.bound, l, ^uint64(0))
		if n != tc.n {
			t.Errorf("%s from %#x: %d iterations, want %d", tc.src, tc.ctr, n, tc.n)
			continue
		}
		if n == 0 {
			continue
		}
		psl := uint32(c.PSL())
		if c.R[1] != tc.r1 || c.PC() != l+uint32(e.bound.next) || c.Cycles != n*uint64(e.bound.cost) ||
			psl&vax.PSLZ != 0 != (tc.r1 == 0) || psl&vax.PSLN != 0 != (int32(tc.r1) < 0) ||
			psl&(vax.PSLV|vax.PSLC) != vax.PSLC {
			t.Errorf("%s from %#x: r1 %#x pc %#x cycles %d psl %#x; want r1 %#x, the fall-through, %d cycles, V clear and C kept",
				tc.src, tc.ctr, c.R[1], c.PC(), c.Cycles, psl, tc.r1, n*uint64(e.bound.cost))
		}
	}
}

// FuzzOneInstructionLoop is a Run-versus-Step differential for the
// closed form. The input chooses the loop kind, the counter, the Run
// budget, the period of a device whose interrupt the ISR counts (0: no
// device), whether the ISR also clears the counter, which ends the
// loop as a wait, and the mapping. After the same number of steps, at
// most loopFuzzSteps, registers, PSL, cycles, cpu.Stats, mmu.Stats, the
// interrupt delivery points and the device must match.
func FuzzOneInstructionLoop(f *testing.F) {
	for i, ctr := range []uint32{0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF} {
		for geq := range 2 {
			f.Add(geq == 1, ctr, uint16(i*50+1), uint16(i*29), i%2 == 0, i%2 == 1)
		}
	}
	f.Fuzz(func(t *testing.T, geq bool, ctr uint32, budget, period uint16, wait, mapped bool) {
		const loopFuzzSteps = 3000
		loop, clear := "sobgtr", ""
		if geq {
			loop = "sobgeq"
		}
		if wait {
			clear = "clrl r1"
		}
		src := fmt.Sprintf(`
start:	movl #%d, r1
l:	%s r1, l
	halt
	.align 4
isr:	incl r5
	%s
	rei
`, ctr, loop, clear)
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
			runSteps += run.c.Run(min(uint64(budget)+1, loopFuzzSteps-runSteps))
		}
		for !step.c.Halted && stepSteps < loopFuzzSteps {
			step.c.Step()
			stepSteps++
		}
		diffRun(t, run, step, runSteps, stepSteps)
		if t.Failed() {
			t.Logf("budget %d, period %d, mapped %t:\n%s", uint64(budget)+1, period, mapped, src)
		}
	})
}
