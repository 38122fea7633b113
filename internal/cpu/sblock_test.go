package cpu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/vax"
)

// Tests for the hot-trace superblock tier (sblock.go). Each mirrors a
// coherence scenario the decoded-instruction cache already covers
// (dcache_test.go) and proves the tier preserves it: self-modifying
// code, TBIS/TBIA remaps under a straddling instruction, DMA, and the
// wholesale flush a snapshot restore performs.

// hotLoop is a compute loop long enough to cross the (lowered) heat
// threshold, build a superblock, and spend most of its run inside it.
const hotLoop = `
start:	clrl r0
	movl #500, r1
loop:	addl2 #3, r0
	sobgtr r1, loop
	halt
`

// enableHot opts a test machine into the tier with a low threshold so
// short test loops get hot.
func enableHot(c *CPU) {
	c.EnableTranslation(true)
	c.SetTraceThreshold(8)
}

// TestSuperblockLoop checks that a hot loop is promoted into a
// superblock and retires most of its instructions inside it.
func TestSuperblockLoop(t *testing.T) {
	ma := newMachine(t, StandardVAX, hotLoop)
	enableHot(ma.c)
	ma.run(t, 100000)
	if ma.c.R[0] != 1500 {
		t.Fatalf("r0 = %d, want 1500", ma.c.R[0])
	}
	s := ma.c.Stats
	if s.SBBuilds == 0 {
		t.Fatal("hot loop built no superblock")
	}
	if s.SBEnters == 0 {
		t.Fatal("superblock was never entered")
	}
	if s.SBSteps < s.Instructions/2 {
		t.Errorf("only %d of %d instructions retired in superblocks",
			s.SBSteps, s.Instructions)
	}
}

// TestSuperblockMatchesInterpreter runs the same program with the tier
// on and off: registers, instruction count and the cycle account must
// be identical — the tier changes speed, not semantics. The programs
// are a self-patching loop and a MULL3/ASHL compute loop (the shape of
// workload.Compute, widened with converts, zero-extends, bit tests and
// an AOBLSS) in which every instruction binds, so tier on runs it as
// bound superblock steps and tier off as bound decode-cache replays.
func TestSuperblockMatchesInterpreter(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"self-patching", `
start:	clrl r0
	movl #2, r3
outer:	movl #200, r1
loop:	addl2 #3, r0
	sobgtr r1, loop
	movb #9, @#loop+1
	sobgtr r3, outer
	halt
`},
		{"bound compute loop", `
start:	movl #300, r11
	clrl r2
	movl #7, r3
	clrl r5
	clrl r8
loop:	addl2 r3, r2
	mull3 r2, #3, r4
	xorl2 r4, r2
	ashl #1, r2, r2
	cvtwl r2, r6
	movzbl r4, r7
	bitl #1, r6
	blbc r7, skip
	incl r5
skip:	aoblss #1000, r8, next
next:	sobgtr r11, loop
	halt
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off := newMachine(t, StandardVAX, tc.src)
			off.run(t, 100000)
			on := newMachine(t, StandardVAX, tc.src)
			enableHot(on.c)
			on.run(t, 100000)

			if on.c.R != off.c.R {
				t.Errorf("registers diverge:\n tier on  %v\n tier off %v", on.c.R, off.c.R)
			}
			if on.c.Stats.Instructions != off.c.Stats.Instructions {
				t.Errorf("instructions: tier on %d, tier off %d",
					on.c.Stats.Instructions, off.c.Stats.Instructions)
			}
			if on.c.Cycles != off.c.Cycles {
				t.Errorf("cycles: tier on %d, tier off %d", on.c.Cycles, off.c.Cycles)
			}
			if on.c.Stats.SBSteps < on.c.Stats.Instructions/2 {
				t.Errorf("only %d of %d instructions retired in superblocks",
					on.c.Stats.SBSteps, on.c.Stats.Instructions)
			}
		})
	}
}

// TestSuperblockSelfModifying patches a hot loop's literal between two
// passes: the store must invalidate the superblock (and any build in
// flight) so the second pass executes the new bytes.
func TestSuperblockSelfModifying(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	clrl r0
	movl #2, r3
outer:	movl #200, r1
loop:	addl2 #3, r0
	sobgtr r1, loop
	movb #9, @#loop+1
	sobgtr r3, outer
	halt
`)
	enableHot(ma.c)
	ma.run(t, 100000)
	// Pass 1 adds 3 two hundred times, pass 2 adds 9 two hundred times.
	if want := uint32(200*3 + 200*9); ma.c.R[0] != want {
		t.Fatalf("r0 = %d, want %d (stale superblock executed)", ma.c.R[0], want)
	}
	if ma.c.Stats.SBInvalidations == 0 {
		t.Error("store to hot code dropped no superblocks")
	}
}

// Straddling hot loop: hand-assembled so the ADDL2's immediate crosses
// the S page 2/3 boundary. Page 3 is backed by frame strFrameB first
// and remapped to strFrameB2, whose copy of the code carries a
// different immediate in the bytes past the boundary (the low
// immediate byte lives on page 2 and cannot change, so the two values
// share it).
const (
	slImm1 = 0x11111111
	slImm2 = 0x22222211 // same low byte: it lives on the first page
	slLaps = 200
)

// newStraddleLoopMachine maps S pages 0-3 to frames 16, 17, strFrameA,
// strFrameB and lays out:
//
//	S+0x400: CLRL R0; MOVL #laps, R1; BRW loop
//	S+0x5FD: loop: ADDL2 #imm32, R0   (immediate crosses S+0x600)
//	S+0x604: SOBGTR R1, loop
//	S+0x607: HALT
func newStraddleLoopMachine(t *testing.T) (*CPU, *mem.Memory) {
	t.Helper()
	m := mem.New(256 * 1024)
	wr := func(pa uint32, bs ...byte) {
		for i, b := range bs {
			if err := m.StoreByte(pa+uint32(i), b); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Page 2 (frame strFrameA): prologue at offset 0, loop head at the
	// page's last three bytes (opcode C0, specifier 8F, imm byte 0).
	p2 := uint32(strFrameA * vax.PageSize)
	wr(p2,
		0xD4, 0x50, // CLRL R0
		0xD0, 0x8F, byte(slLaps), 0x00, 0x00, 0x00, 0x51, // MOVL #laps, R1
		0x31, 0xF1, 0x01) // BRW loop (disp 0x1F1 from S+0x40C)
	wr(p2+vax.PageSize-3, 0xC0, 0x8F, slImm1&0xFF) // ADDL2 #imm, ...
	// Page 3 (frames strFrameB and strFrameB2): the immediate's high
	// three bytes, the R0 specifier, SOBGTR back to loop, HALT.
	tail := func(frame, imm uint32) {
		pa := frame * vax.PageSize
		wr(pa, byte(imm>>8), byte(imm>>16), byte(imm>>24), 0x50, // ... #imm, R0
			0xF5, 0x51, 0xF6, // SOBGTR R1, loop (disp -0x0A)
			0x00) // HALT
	}
	tail(strFrameB, slImm1)
	tail(strFrameB2, slImm2)

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
	enableHot(c)
	return c, m
}

func runStraddleLoop(t *testing.T, c *CPU, wantImm uint32) {
	t.Helper()
	c.ClearHalt()
	c.SetPC(uint32(vax.SystemBase) + 2*vax.PageSize)
	c.SetSP(0x8000)
	c.Run(100000)
	if !c.Halted {
		t.Fatalf("did not halt; pc=%#x", c.PC())
	}
	if want := wantImm * slLaps; c.R[0] != want {
		t.Fatalf("r0 = %#x, want %#x (stale straddle bytes executed)", c.R[0], want)
	}
}

// TestSuperblockStraddleTBIS remaps the second page of a hot,
// page-straddling loop body: after TBIS the superblock's entry guard
// must notice the translation change and the rebuilt trace must use
// the new immediate bytes.
func TestSuperblockStraddleTBIS(t *testing.T) {
	c, m := newStraddleLoopMachine(t)
	runStraddleLoop(t, c, slImm1)
	if c.Stats.SBEnters == 0 {
		t.Fatal("straddling loop never entered a superblock")
	}
	entered := c.Stats.SBEnters

	pte := vax.NewPTE(true, vax.ProtUW, true, strFrameB2)
	if err := m.StoreLong(strSPT+4*3, uint32(pte)); err != nil {
		t.Fatal(err)
	}
	c.MMU.TBIS(uint32(vax.SystemBase) + 3*vax.PageSize)
	runStraddleLoop(t, c, slImm2)
	if c.Stats.SBEnters == entered {
		t.Error("loop did not get hot again after the remap")
	}
}

// TestSuperblockStraddleTBIA is the same scenario through a full TLB
// invalidate.
func TestSuperblockStraddleTBIA(t *testing.T) {
	c, m := newStraddleLoopMachine(t)
	runStraddleLoop(t, c, slImm1)
	pte := vax.NewPTE(true, vax.ProtUW, true, strFrameB2)
	if err := m.StoreLong(strSPT+4*3, uint32(pte)); err != nil {
		t.Fatal(err)
	}
	c.MMU.TBIA()
	runStraddleLoop(t, c, slImm2)
}

// TestSuperblockDMAInvalidate patches hot code the way a device would
// — a direct store to physical memory plus InvalidateDecode — and
// checks the rerun executes the new bytes.
func TestSuperblockDMAInvalidate(t *testing.T) {
	ma := newMachine(t, StandardVAX, hotLoop)
	enableHot(ma.c)
	ma.run(t, 100000)
	if ma.c.R[0] != 1500 {
		t.Fatalf("r0 = %d, want 1500", ma.c.R[0])
	}

	// "DMA" the ADDL2 literal from 3 to 5 (opcode byte C0, then the
	// short-literal specifier).
	patch := ma.prog.MustSymbol("loop") + 1
	if err := ma.m.StoreByte(patch, 5); err != nil {
		t.Fatal(err)
	}
	ma.c.InvalidateDecode(patch, 1)
	if ma.c.Stats.SBInvalidations == 0 {
		t.Fatal("DMA invalidation dropped no superblocks")
	}

	ma.c.ClearHalt()
	ma.c.SetPC(ma.prog.MustSymbol("start"))
	ma.run(t, 100000)
	if ma.c.R[0] != 2500 {
		t.Fatalf("r0 = %d after DMA patch, want 2500", ma.c.R[0])
	}
}

// TestSuperblockFlushRestore rewrites code under the machine wholesale
// (what a snapshot restore does) and relies on FlushDecodeCache — the
// restore path's hook — to drop every superblock.
func TestSuperblockFlushRestore(t *testing.T) {
	ma := newMachine(t, StandardVAX, hotLoop)
	enableHot(ma.c)
	ma.run(t, 100000)

	// "Restore" an image whose loop adds 7 instead of 3.
	patch := ma.prog.MustSymbol("loop") + 1
	if err := ma.m.StoreByte(patch, 7); err != nil {
		t.Fatal(err)
	}
	ma.c.FlushDecodeCache()

	ma.c.ClearHalt()
	ma.c.SetPC(ma.prog.MustSymbol("start"))
	ma.run(t, 100000)
	if ma.c.R[0] != 3500 {
		t.Fatalf("r0 = %d after restore, want 3500", ma.c.R[0])
	}
}

// TestSuperblockInterruptDelivery posts a device interrupt while a
// superblock is hot: delivery may slip to a block boundary but must
// happen, and the loop must finish correctly afterwards.
func TestSuperblockInterruptDelivery(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	clrl r0
	clrl r5
	movl #5000, r1
loop:	addl2 #3, r0
	sobgtr r1, loop
	halt
	.align 4
isr:	movl #1, r5
	rei
`)
	ma.setVector(t, 0xC4, "isr")
	enableHot(ma.c)
	ma.c.Run(100) // get the loop hot and inside superblocks
	if ma.c.Halted {
		t.Fatal("halted before the interrupt was posted")
	}
	if ma.c.Stats.SBEnters == 0 {
		t.Fatal("loop not yet hot when the interrupt was posted")
	}
	ma.c.RequestInterrupt(20, 0xC4)
	ma.run(t, 100000)
	if ma.c.R[5] != 1 {
		t.Error("interrupt was never delivered during superblock execution")
	}
	if ma.c.R[0] != 15000 {
		t.Fatalf("r0 = %d, want 15000", ma.c.R[0])
	}
	if ma.c.Stats.Interrupts == 0 {
		t.Error("no interrupt recorded")
	}
}

// TestTranslationAllocParity pins the steady-state tier at zero
// allocations per run: once hot, entering and replaying superblocks
// must allocate nothing.
func TestTranslationAllocParity(t *testing.T) {
	ma := newMachine(t, StandardVAX, hotLoop)
	enableHot(ma.c)
	ma.run(t, 100000) // warm: decode cache filled, superblock built
	start := ma.prog.MustSymbol("start")
	got := testing.AllocsPerRun(10, func() {
		ma.c.ClearHalt()
		ma.c.SetPC(start)
		ma.c.Run(100000)
	})
	if got != 0 {
		t.Fatalf("steady-state superblock execution allocates %.1f/run, want 0", got)
	}
	if ma.c.Stats.SBEnters == 0 {
		t.Fatal("alloc-parity runs never entered a superblock")
	}
}
