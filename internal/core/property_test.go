package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	asmPkg "repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/trace"
	"repro/internal/vax"
)

type progT = asmPkg.Program

// TestGuestWalkMatchesHardwareWalk is the equivalence property behind
// shadow paging: the VMM's software walk of a guest's page tables
// (guestTranslate) must agree, access for access, with what real VAX
// memory-management hardware would decide given the same tables.
//
// For each trial, a random guest system page table is generated over a
// memory image of random longwords, and random P0 and P1 tables are
// placed in guest S space: their PTE pages may be valid, invalid,
// reserved, beyond SLR, outside S space or past the VM's memory. Every
// sampled (page, mode, access) combination in the S, P0 and P1 regions,
// including pages beyond SLR, P0LR and P1LR, is then checked against a
// real standard-VAX MMU walking the identical tables: the same physical
// address, the same fault vector, and a hardware bus error exactly
// where the VM halts.
func TestGuestWalkMatchesHardwareWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trials = 30
	const memPages = gMemSize / vax.PageSize
	randPTE := func(pfnRange int) vax.PTE {
		return vax.NewPTE(rng.Intn(4) > 0, vax.Protection(rng.Intn(16)),
			rng.Intn(2) == 0, uint32(rng.Intn(pfnRange)))
	}
	// A process base register: usually a longword inside S pages 0..25
	// (24 and 25 lie beyond SLR), sometimes an address outside S space.
	randBR := func() uint32 {
		if rng.Intn(10) == 0 {
			return 4 * uint32(rng.Intn(1024))
		}
		return vax.SystemBase + uint32(rng.Intn(26))*vax.PageSize + 4*uint32(rng.Intn(128))
	}
	var outcomes [4]int // translation, fault, bus error, M-bit write
	// Walk outcomes seen per region class (S, process), so the test
	// fails loudly if the generator stops reaching a walk outcome.
	var walks [2][walkOutside + 1]int

	for trial := 0; trial < trials; trial++ {
		// Random longwords stand in for the process page tables wherever
		// the SPT points their PTE pages.
		img := make([]byte, gMemSize)
		for off := 0; off < gMemSize; off += 4 {
			binary.LittleEndian.PutUint32(img[off:], uint32(randPTE(64)))
		}
		// Random guest SPT over 24 pages; one in eight maps a frame past
		// the VM's memory.
		for i := uint32(0); i < 24; i++ {
			pte := randPTE(64)
			if rng.Intn(8) == 0 {
				pte = vax.NewPTE(pte.Valid(), pte.Prot(), pte.Modified(), memPages+uint32(rng.Intn(64)))
			}
			binary.LittleEndian.PutUint32(img[gSPT+4*i:], uint32(pte))
		}
		p0br, p1br := randBR(), randBR()
		p0lr, p1lr := uint32(rng.Intn(300)), uint32(rng.Intn(300))

		// The VMM side.
		k := New(8<<20, Config{})
		vm, err := k.CreateVM(VMConfig{
			MemBytes: gMemSize, Image: img,
			PreMapped: true, SBR: gSPT, SLR: 24, SCBB: gSCB,
		})
		if err != nil {
			t.Fatal(err)
		}
		vm.p0br, vm.p0lr, vm.p1br, vm.p1lr = p0br, p0lr, p1br, p1lr
		swMem, err := k.Mem.Window(vm.frames[0]*vax.PageSize, gMemSize)
		if err != nil {
			t.Fatal(err)
		}

		// The hardware side: a plain MMU over a copy of the same image.
		hwMem := mem.New(gMemSize)
		if err := hwMem.StoreBytes(0, img); err != nil {
			t.Fatal(err)
		}
		hwImg, err := hwMem.Window(0, gMemSize)
		if err != nil {
			t.Fatal(err)
		}
		hw := mmu.New(hwMem)
		hw.Enabled = true
		hw.SBR, hw.SLR = gSPT, 24
		hw.P0BR, hw.P0LR, hw.P1BR, hw.P1LR = p0br, p0lr, p1br, p1lr

		// Every S page (including two beyond SLR), then 40 random pages
		// of each process region up to three past its length register.
		var vas []uint32
		for page := uint32(0); page < 26; page++ {
			vas = append(vas, vax.SystemBase+page*vax.PageSize)
		}
		for i := 0; i < 40; i++ {
			vas = append(vas,
				uint32(rng.Intn(int(p0lr)+3))*vax.PageSize,
				vax.P1Base+uint32(rng.Intn(int(p1lr)+3))*vax.PageSize)
		}
		for _, base := range vas {
			for mode := vax.Kernel; mode <= vax.User; mode++ {
				for _, write := range []bool{false, true} {
					va := base + uint32(rng.Intn(vax.PageSize))
					acc := mmu.Read
					if write {
						acc = mmu.Write
					}
					// The VMM never caches a walk; neither may the
					// reference MMU, whose stale TLB entry could miss a
					// PTE the other walk just updated.
					hw.TBIA()
					msets := hw.Stats.MSets
					_, w := vm.guestWalk(va)
					if vax.Region(va) == vax.RegionSystem {
						walks[0][w]++
					} else {
						walks[1][w]++
					}
					hwPA, hwErr := hw.Translate(va, acc, mode)
					swPA, gf := k.guestTranslate(vm, va, write, mode)
					where := fmt.Sprintf("trial %d va=%#x mode=%s write=%t", trial, va, mode, write)

					hwExc, isExc := hwErr.(*vax.Exception)
					switch {
					case vm.halted:
						if hwErr == nil || isExc {
							t.Fatalf("%s: VM halted (%s) but hardware gave %v", where, vm.haltMsg, hwErr)
						}
						outcomes[2]++
						// guestTranslate needs no shadow tables: revive
						// the VM for the next access.
						vm.halted, vm.haltMsg = false, ""
					case hwErr != nil && !isExc:
						t.Fatalf("%s: hardware bus error %v but the VM did not halt", where, hwErr)
					case hwErr == nil && gf == nil:
						if hwPA != swPA {
							t.Fatalf("%s: pa %#x vs %#x", where, hwPA, swPA)
						}
						outcomes[0]++
					case hwErr != nil && gf != nil:
						if hwExc.Vector != gf.vec {
							t.Fatalf("%s: fault %s vs %s", where, hwExc.Vector, gf.vec)
						}
						outcomes[1]++
					default:
						t.Fatalf("%s: hw=%v sw=%v", where, hwErr, gf)
					}
					// Hardware M-bit setting and the VMM's guest-PTE
					// update must leave the two images identical.
					if !bytes.Equal(hwImg, swMem) {
						t.Fatalf("%s: guest memory diverged from the hardware's", where)
					}
					if hw.Stats.MSets != msets {
						outcomes[3]++
					}
				}
			}
		}
	}
	for i, name := range []string{"translation", "fault", "bus error", "M-bit write"} {
		if outcomes[i] == 0 {
			t.Errorf("no %s outcome over %d trials: the generator lost coverage", name, trials)
		}
	}
	for w := walkOK; w <= walkOutside; w++ {
		if walks[1][w] == 0 {
			t.Errorf("no P0/P1 walk with outcome %d over %d trials", w, trials)
		}
	}
	if walks[0][walkOK] == 0 || walks[0][walkLength] == 0 {
		t.Errorf("S-region walks %v miss an in-range or beyond-SLR page", walks[0])
	}
}

// TestVMCannotTouchOutsideItsMemory: whatever page tables a guest
// builds, no reference it makes can reach real memory outside its
// allocation — the VMM halts it instead (resource control, Section 2).
func TestVMCannotTouchOutsideItsMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		img := make([]byte, gMemSize)
		// SPT whose PFNs point far beyond the VM's memory.
		for i := uint32(0); i < gSPTLen; i++ {
			pfn := uint32(rng.Intn(1 << 20))
			binary.LittleEndian.PutUint32(img[gSPT+4*i:],
				uint32(vax.NewPTE(true, vax.ProtUW, true, pfn)))
		}
		// Keep the code page mapped correctly so the guest can start.
		for i := uint32(0); i < 16; i++ {
			binary.LittleEndian.PutUint32(img[gSPT+4*(8+i):],
				uint32(vax.NewPTE(true, vax.ProtUW, true, 8+i)))
		}
		prog := `
start:	movl #0x80000000, r1
loop:	movl (r1), r2        ; scan S space
	addl2 #512, r1
	brb loop
`
		k := New(8<<20, Config{})
		// A sentinel VM after the target so out-of-range writes would land
		// in its memory if containment failed.
		vm, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: img,
			StartPC: 0x80001000, PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
		if err != nil {
			t.Fatal(err)
		}
		victim, err := k.CreateVM(VMConfig{MemBytes: gMemSize})
		if err != nil {
			t.Fatal(err)
		}
		// Fill the victim's memory with a sentinel pattern.
		sentinel := make([]byte, victim.MemSize)
		for i := range sentinel {
			sentinel[i] = 0xA5
		}
		if err := victim.dmaWrite(0, sentinel); err != nil {
			t.Fatal(err)
		}
		// Assemble the scanning guest into the image the VM already has.
		p, err := asmAssembleAt(prog, vax.SystemBase+gCode)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.dmaWrite(gCode, p.Code); err != nil {
			t.Fatal(err)
		}

		k.Run(1_000_000)
		if h, _ := vm.Halted(); !h {
			t.Fatalf("trial %d: scanner still running", trial)
		}
		dump := victim.DumpMemory()
		for i, b := range dump {
			if b != 0xA5 {
				t.Fatalf("trial %d: victim memory modified at %#x", trial, i)
			}
		}
	}
}

func asmAssembleAt(src string, origin uint32) (*progT, error) {
	return asmPkg.Assemble(src, origin)
}

// TestAuditTrail exercises the audit facility end to end.
func TestAuditTrail(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, `
start:	mtpr #5, #18
	pushl #0x03C00000
	pushl #ucode
	rei
	.align 4
ucode:	mtpr #1, #18         ; privilege violation from VM user
	halt
	.align 4
privh:	halt
`, map[vax.Vector]string{vax.VecPrivInstr: "privh"})
	k.EnableRecorder(64)
	runVM(t, k, vm, 100000)
	trail := k.Recorder().Audit()
	if len(trail) == 0 {
		t.Fatal("empty audit trail")
	}
	var kinds = map[trace.Kind]int{}
	for _, e := range trail {
		kinds[e.Kind]++
		if e.String() == "" {
			t.Error("empty event string")
		}
	}
	if kinds[trace.EvVMTrap] == 0 {
		t.Error("no VM traps audited")
	}
	if kinds[trace.EvPrivFault] == 0 {
		t.Error("privilege fault not audited")
	}
	if kinds[trace.EvReflected] == 0 {
		t.Error("reflected fault not audited")
	}
	if kinds[trace.EvVMHalted] == 0 {
		t.Error("VM halt not audited")
	}
}

// TestAuditRingBufferWraps: the audit view reads each VM's log, so a
// full log evicts the oldest events from the trail too and counts them
// as dropped; without a recorder there is no trail at all.
func TestAuditRingBufferWraps(t *testing.T) {
	k := New(8<<20, Config{})
	rec := k.EnableRecorder(4)
	vm, err := k.CreateVM(VMConfig{MemBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		vm.rec.Record(trace.EvSchedRun, uint64(i), 0, 0)
	}
	trail := rec.Audit()
	if len(trail) != 4 || trail[0].Cycle != 6 {
		t.Fatalf("trail %v, want the newest 4 events", trail)
	}
	// vm-created plus ten sched-runs, four retained.
	if d := rec.Dropped(); d != 7 {
		t.Errorf("dropped %d, want 7", d)
	}
	if New(8<<20, Config{}).Recorder() != nil {
		t.Error("recorder attached without EnableRecorder")
	}
}
