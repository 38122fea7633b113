package cpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/vax"
)

// Robustness: no byte stream, executed in any mode on either variant,
// may panic the interpreter or corrupt the machine invariants. Random
// programs mostly fault immediately; the point is that every path ends
// in an architectural response (fault, halt, or progress), never a Go
// panic or a privilege violation.

func TestRandomCodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	const trials = 300

	for trial := 0; trial < trials; trial++ {
		code := make([]byte, 64)
		rng.Read(code)

		for _, variant := range []Variant{StandardVAX, ModifiedVAX} {
			m := mem.New(64 * 1024)
			if err := m.StoreBytes(0x400, code); err != nil {
				t.Fatal(err)
			}
			c := New(m, variant)
			c.SCBB = 0 // SCB page is all zeros: any dispatch double-faults
			startMode := vax.Mode(rng.Intn(4))
			c.SetStackFor(startMode, 0x8000)
			c.SetPSL(vax.PSL(0).WithCur(startMode).WithPrv(startMode))
			c.SetPC(0x400)

			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("trial %d variant %s mode %s: panic %v on code %x",
							trial, variant, startMode, r, code)
					}
				}()
				c.Run(200)
			}()

			// Machine invariants survive arbitrary code.
			if c.PSL().Cur() == vax.Kernel && startMode != vax.Kernel && !c.Halted {
				// Reaching kernel mode is only legal through the SCB,
				// whose vectors are zero here — so the machine must have
				// halted (double error) if it ever dispatched.
				t.Fatalf("trial %d: random %s-mode code reached kernel mode, code %x",
					trial, startMode, code)
			}
			if c.PSL().VM() && variant == StandardVAX {
				t.Fatalf("trial %d: standard VAX set PSL<VM>", trial)
			}
		}
	}
}

func TestRandomCodeInVMNeverEscapes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const trials = 200

	for trial := 0; trial < trials; trial++ {
		code := make([]byte, 48)
		rng.Read(code)
		m := mem.New(256 * 1024)
		if err := m.StoreBytes(16*vax.PageSize, code); err != nil {
			t.Fatal(err)
		}
		c := New(m, ModifiedVAX)
		for i := uint32(0); i < 32; i++ {
			pte := vax.NewPTE(true, vax.ProtUW, true, 16+i)
			if err := m.StoreLong(0x1000+4*i, uint32(pte)); err != nil {
				t.Fatal(err)
			}
		}
		c.MMU.SBR = 0x1000
		c.MMU.SLR = 32
		c.MMU.Enabled = true
		sink := &recordSink{onTrap: func(c *CPU, e *vax.Exception) bool {
			// Stand-in VMM: consume everything and halt, like a VMM
			// terminating a misbehaving VM.
			c.Halt(HaltInstruction)
			return true
		}}
		c.Sink = sink
		c.SetStackFor(vax.Executive, vax.SystemBase+16*vax.PageSize)
		c.SetPSL(vax.PSL(0).WithCur(vax.Executive).WithPrv(vax.Executive).WithVM(true))
		c.VMPSL = vax.PSL(0).WithCur(vax.Kernel).WithPrv(vax.Kernel)
		c.SetPC(vax.SystemBase)

		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic %v on code %x", trial, r, code)
				}
			}()
			c.Run(200)
		}()

		// The VM must never reach real kernel mode on its own: every
		// event lands in the sink, never past it.
		if c.PSL().Cur() == vax.Kernel && !c.Halted {
			t.Fatalf("trial %d: VM code reached real kernel mode, code %x", trial, code)
		}
	}
}

// selfModSource builds the program FuzzSelfModifyingCode runs: a loop
// of iters%16+1 passes whose body starts with up to six stores, one
// per 4 bytes of ops[:24]: ops[0]%4 picks a byte, word or longword
// store (3: none), ops[1] an offset of -8..+48 from loop (the 8 bytes
// before loop are the loop's own head), and ops[2:4] the value. pad
// places the head at 0x5C8 + pad%0x48, so the loop may straddle the
// page boundary at 0x600.
//
// Those stores write their own page, so the recording abort keeps
// them uncached. With at least 27 bytes of ops, the loop also calls a
// block of stores on a page of its own, which are cached and run bound:
// r1 starts at loop + ops[24]%57 - 8 and moves by the signed word
// ops[25:27] after each call, and up to four stores follow from
// ops[27:], four bytes each as above except that ops[i+1]%3 picks
// @#loop+off, (r1) or (r1)+ and ops[i+1]/3 the offset.
func selfModSource(iters, pad uint8, ops []byte) string {
	store := func(b *strings.Builder, op []byte, dst string) {
		size := "bwl-"[op[0]%4]
		v := uint32(op[2]) | uint32(op[3])<<8
		switch size {
		case '-':
			return
		case 'b':
			v &= 0xFF
		case 'l':
			v |= (v ^ 0xA5A5) << 16
		}
		fmt.Fprintf(b, "\tmov%c #%d, %s\n", size, v, dst)
	}
	block := len(ops) >= 27
	var b strings.Builder
	fmt.Fprintf(&b, "start:\tmovl #%d, r11\n\tclrl r0\n", iters%16+1)
	space := 0x1C0 + int(pad)%0x48
	if block {
		fmt.Fprintf(&b, "\tmovl #loop%+d, r1\n", int(ops[24]%57)-8)
		space -= 7 // that MOVL's length: the head stays where pad puts it
	}
	fmt.Fprintf(&b, "\tbrw top\n\t.space %d\n", space)
	b.WriteString("top:\tincl r0\n\taddl2 r0, r2\n\tmovzbl #5, r3\nloop:\n")
	for i := 0; i+4 <= len(ops) && i < 4*6; i += 4 {
		store(&b, ops[i:i+4], fmt.Sprintf("@#loop%+d", int(ops[i+1]%57)-8))
	}
	if block {
		fmt.Fprintf(&b, "\tjsb @#blk\n\taddl2 #%d, r1\n", uint32(int32(int16(uint16(ops[25])|uint16(ops[26])<<8))))
	}
	b.WriteString("\taddl2 #3, r4\n\txorl2 r0, r5\n\tsobgtr r11, top\n\thalt\n\t.space 64\n")
	if block {
		b.WriteString("\t.align 512\nblk:\n")
		for i := 27; i+4 <= len(ops) && i < 27+4*4; i += 4 {
			dst := [3]string{fmt.Sprintf("@#loop%+d", int(ops[i+1]/3%57)-8), "(r1)", "(r1)+"}[ops[i+1]%3]
			store(&b, ops[i:i+4], dst)
		}
		b.WriteString("\tincl r6\n\trsb\n")
	}
	return b.String()
}

// FuzzSelfModifyingCode is a differential oracle for decode-cache
// coherence. The program selfModSource builds stores around and over
// its own instructions; one machine runs it under Run, with the decode
// cache, and a reference machine one Step at a time with the cache
// flushed before every step. Registers, PSL, memory and cycles must
// match at HALT or at the step budget.
func FuzzSelfModifyingCode(f *testing.F) {
	// Offsets are ops[1]%57-8: 7 is loop-1, 8 loop's first byte. Pad
	// 0x40 puts the head at 0x600 and the loop at 0x608; pad 0x2F puts
	// the first store's opcode on page 2's last byte, 0x5FF, and pad
	// 0x32 the head's MOVZBL across 0x600.
	f.Add(false, uint8(3), uint8(0x40), []byte{0, 7, 0xEE, 0})            // byte just before the loop
	f.Add(true, uint8(3), uint8(0x40), []byte{1, 6, 0xEE, 0xEE})          // word just before the loop
	f.Add(false, uint8(3), uint8(0x40), []byte{2, 4, 0xEE, 0xEE})         // longword just before the loop
	f.Add(false, uint8(3), uint8(0x40), []byte{0, 9, 0x09, 0})            // the store's own literal
	f.Add(false, uint8(3), uint8(0x40), []byte{1, 7, 0xEE, 0x90})         // word over the loop's first byte
	f.Add(true, uint8(3), uint8(0x40), []byte{0, 14, 0x22, 0})            // the store's last byte
	f.Add(false, uint8(3), uint8(0x40), []byte{0, 15, 0x07, 0})           // just after the store
	f.Add(true, uint8(5), uint8(0x40), []byte{0, 0, 0xD6, 0, 2, 2, 1, 2}) // the loop head, then a long over it
	f.Add(false, uint8(3), uint8(0x2F), []byte{0, 14, 0x22, 0})           // the straddling store's last byte
	f.Add(true, uint8(3), uint8(0x2F), []byte{0, 15, 0x07, 0})            // just after the straddling store
	f.Add(true, uint8(9), uint8(0x32), []byte{0, 6, 0x30, 0})             // the literal of the head's straddling MOVZBL
	f.Add(false, uint8(9), uint8(0x30), []byte{2, 56, 1, 2, 1, 23, 4, 5, 0, 30, 0x50, 0})
	// Bound stores from the block at 0x800. With pad 0x40 the block's
	// MOVB #0xD7, (R1) is followed by INCL R6 at 0x804: r1 starts at
	// loop+48 (0x640, past the halt) and the stride 0x1C4 moves the
	// second call's store onto that INCL, making it DECL. With pad 0x32
	// the block's MOVB #9, @#loop-2 rewrites the literal of the head's
	// MOVZBL, the second-page part of a straddle.
	none := []byte{3, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0}
	f.Add(true, uint8(3), uint8(0x40), append(none[:24:24], 56, 0xC4, 0x01, 0, 1, 0xD7, 0))
	f.Add(false, uint8(3), uint8(0x40), append(none[:24:24], 56, 0xC4, 0x01, 0, 1, 0xD7, 0))
	f.Add(true, uint8(3), uint8(0x32), append(none[:24:24], 56, 0, 0, 0, 18, 9, 0))
	f.Add(false, uint8(3), uint8(0x32), append(none[:24:24], 56, 0, 0, 0, 18, 9, 0))
	f.Fuzz(func(t *testing.T, mapped bool, iters, pad uint8, ops []byte) {
		src := selfModSource(iters, pad, ops)
		run := newRunMachine(t, src, mapped, nil)
		ref := newRunMachine(t, src, mapped, nil)
		const budget = 2000
		steps := run.c.Run(budget)
		var refSteps uint64
		for !ref.c.Halted && refSteps < budget {
			ref.c.FlushDecodeCache()
			ref.c.Step()
			refSteps++
		}
		a, b := run.c, ref.c
		if steps != refSteps || a.Halted != b.Halted || a.R != b.R || a.PSL() != b.PSL() || a.Cycles != b.Cycles {
			t.Fatalf("Run and uncached Step diverge:\n Run  %d steps halted=%t %x %s %d cycles\n Step %d steps halted=%t %x %s %d cycles\n%s",
				steps, a.Halted, a.R, a.PSL(), a.Cycles, refSteps, b.Halted, b.R, b.PSL(), b.Cycles, src)
		}
		ma, err := run.m.Window(0, run.m.Size())
		if err != nil {
			t.Fatal(err)
		}
		mb, err := ref.m.Window(0, ref.m.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ma, mb) {
			t.Fatalf("Run and uncached Step leave different memory\n%s", src)
		}
	})
}
