package core

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/vax"
)

// Guest layout used throughout the tests (VM-physical addresses):
//
//	0x0000  guest SCB
//	0x0200  guest system page table (identity: S page i -> VM frame i)
//	0x1000  guest code (assembled at 0x80001000)
//	0x7E00  guest kernel stack top 0x8000, user stack top 0x7000, etc.
const (
	gSCB     = 0x0000
	gSPT     = 0x0200
	gCode    = 0x1000
	gSPTLen  = 64 // identity-map 64 S pages = 32 KB
	gKSP     = 0x80008000
	gESP     = 0x80007800
	gSSP     = 0x80007400
	gUSP     = 0x80007000
	gISP     = 0x80006E00 // within the 64 mapped S pages
	gMemSize = 64 * 1024
)

// guestImage assembles src at S address 0x80001000 and builds a VM
// memory image with an identity system page table and the SCB vectors
// named in vectors (label -> vector).
func guestImage(t *testing.T, src string, vectors map[vax.Vector]string) ([]byte, *asm.Program) {
	t.Helper()
	prog, err := asm.Assemble(src, vax.SystemBase+gCode)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	img := make([]byte, gMemSize)
	// Identity SPT, all pages UW, premodified.
	for i := uint32(0); i < gSPTLen; i++ {
		pte := vax.NewPTE(true, vax.ProtUW, true, i)
		binary.LittleEndian.PutUint32(img[gSPT+4*i:], uint32(pte))
	}
	copy(img[gCode:], prog.Code)
	for vec, label := range vectors {
		binary.LittleEndian.PutUint32(img[gSCB+uint32(vec):], prog.MustSymbol(label))
	}
	return img, prog
}

// bootVM creates a VMM with one pre-mapped VM running src.
func bootVM(t *testing.T, cfg Config, src string, vectors map[vax.Vector]string, opts ...Option) (*VMM, *VM, *asm.Program) {
	t.Helper()
	img, prog := guestImage(t, src, vectors)
	k := New(8<<20, cfg, opts...)
	vm, err := k.CreateVM(VMConfig{
		MemBytes:  gMemSize,
		Image:     img,
		LoadAt:    0,
		StartPC:   prog.MustSymbol("start"),
		PreMapped: true,
		SBR:       gSPT,
		SLR:       gSPTLen,
		SCBB:      gSCB,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.SPs[vax.Kernel] = gKSP
	vm.SPs[vax.Executive] = gESP
	vm.SPs[vax.Supervisor] = gSSP
	vm.SPs[vax.User] = gUSP
	vm.ISP = gISP
	return k, vm, prog
}

// runVM runs until the VM halts or maxSteps pass.
func runVM(t *testing.T, k *VMM, vm *VM, maxSteps uint64) {
	t.Helper()
	k.Run(maxSteps)
	if halted, _ := vm.Halted(); !halted {
		t.Fatalf("VM did not halt: pc=%#x vmpsl=%s real=%s",
			k.CPU.PC(), k.CPU.VMPSL, k.CPU.PSL())
	}
}

// guestLong reads a guest-physical longword.
func guestLong(t *testing.T, vm *VM, vmPhys uint32) uint32 {
	t.Helper()
	v, ok := vm.readPhys(vmPhys)
	if !ok {
		t.Fatalf("guest phys read %#x failed", vmPhys)
	}
	return v
}

const privHandler = `
	.align 4
privh:	halt                 ; guest gives up on privilege violations
`

func TestGuestKernelRunsAndHalts(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, `
start:	movl #0x1234, @#0x80006000
	halt
`, nil)
	runVM(t, k, vm, 100000)
	if got := guestLong(t, vm, 0x6000); got != 0x1234 {
		t.Errorf("guest store = %#x", got)
	}
	if _, msg := vm.Halted(); !strings.Contains(msg, "HALT") {
		t.Errorf("halt reason %q", msg)
	}
}

func TestGuestREIAndCHMRoundTrip(t *testing.T) {
	// Guest kernel drops to user mode with REI; user issues CHMK; the
	// kernel handler stores the code and halts.
	k, vm, _ := bootVM(t, Config{}, `
start:	pushl #0x03C00000    ; PSL: cur=user prv=user
	pushl #ucode
	rei
	.align 4
ucode:	movpsl r6
	chmk #99
	halt                 ; unreachable if CHMK works (halts via privh otherwise)
	.align 4
chmk:	movl (sp)+, r7       ; code
	movpsl r8
	halt
`+privHandler, map[vax.Vector]string{
		vax.VecCHMK:      "chmk",
		vax.VecPrivInstr: "privh",
	})
	runVM(t, k, vm, 100000)
	c := k.CPU
	if c.R[7] != 99 {
		t.Errorf("CHMK code = %d", c.R[7])
	}
	// The user-mode MOVPSL saw the VM in user mode.
	if got := vax.PSL(c.R[6]); got.Cur() != vax.User {
		t.Errorf("user MOVPSL cur = %s", got.Cur())
	}
	// The handler's MOVPSL: VM kernel, previous mode user.
	got := vax.PSL(c.R[8])
	if got.Cur() != vax.Kernel || got.Prv() != vax.User {
		t.Errorf("handler PSL = %s", got)
	}
	if vm.Stats.CHMs != 1 || vm.Stats.REIs != 1 {
		t.Errorf("stats: %+v", vm.Stats)
	}
}

func TestGuestRingCompressionInvisible(t *testing.T) {
	// The VM's kernel runs in real executive mode, but MOVPSL and CHM
	// behave as if it were real kernel mode — the real ring numbers are
	// concealed (Section 4.1).
	k, vm, _ := bootVM(t, Config{}, `
start:	movpsl r5
	halt
`, nil)
	runVM(t, k, vm, 1000)
	guest := vax.PSL(k.CPU.R[5])
	if guest.Cur() != vax.Kernel {
		t.Errorf("VM sees mode %s, want kernel", guest.Cur())
	}
	if vm.Stats.VMTraps != 1 { // only the final HALT
		t.Errorf("MOVPSL should not trap: %+v", vm.Stats)
	}
}

func TestGuestPrivFaultFromVMUserReflected(t *testing.T) {
	// VM-user MTPR: privileged instruction fault forwarded to the VM's
	// own handler (Section 4.4.1).
	k, vm, _ := bootVM(t, Config{}, `
start:	pushl #0x03C00000
	pushl #ucode
	rei
	.align 4
ucode:	mtpr #1, #18         ; user mode: privilege violation
	halt
	.align 4
privh:	movl #0xBEEF, r9
	halt
`, map[vax.Vector]string{vax.VecPrivInstr: "privh"})
	runVM(t, k, vm, 100000)
	if k.CPU.R[9] != 0xBEEF {
		t.Error("privileged instruction fault not reflected to VM")
	}
	if vm.Stats.ReflectedFaults == 0 {
		t.Error("ReflectedFaults not counted")
	}
}

func TestGuestMFPRMemsizeAndSID(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, `
start:	mfpr #200, r3        ; MEMSIZE
	mfpr #62, r4         ; SID
	halt
`, nil)
	runVM(t, k, vm, 1000)
	if k.CPU.R[3] != gMemSize {
		t.Errorf("MEMSIZE = %#x, want %#x", k.CPU.R[3], gMemSize)
	}
	if k.CPU.R[4] != virtualSID {
		t.Errorf("SID = %#x", k.CPU.R[4])
	}
}

func TestGuestModifyFaultTransparent(t *testing.T) {
	// One S page starts with PTE<M> clear. The guest writes it; the VMM
	// absorbs the modify fault, sets M in the shadow AND in the guest's
	// own PTE (Section 4.4.2), and the guest observes its PTE changed —
	// standard-VAX semantics, "no change" (Table 4).
	k, vm, _ := bootVM(t, Config{}, `
start:	movl #7, @#0x80004000      ; S page 32: M clear
	movl @#0x80000280, r5        ; guest reads its own PTE for page 32
	halt
`, nil)
	// SPT entry 32 at VM-phys 0x200 + 4*32 = 0x280: clear M.
	pte := vax.NewPTE(true, vax.ProtUW, false, 32)
	if !vm.writePhys(gSPT+4*32, uint32(pte)) {
		t.Fatal("setup write failed")
	}
	runVM(t, k, vm, 10000)
	if vm.Stats.ModifyFaults != 1 {
		t.Errorf("ModifyFaults = %d", vm.Stats.ModifyFaults)
	}
	if got := guestLong(t, vm, 0x4000); got != 7 {
		t.Errorf("write lost: %#x", got)
	}
	if !vax.PTE(k.CPU.R[5]).Modified() {
		t.Error("guest PTE<M> not set in the VM's page table")
	}
}

func TestGuestDemandPagingLoop(t *testing.T) {
	// Guest PTE invalid -> VMM reflects TNV to the guest, whose handler
	// validates the PTE and REIs; the faulting MOVL retries.
	k, vm, _ := bootVM(t, Config{}, `
start:	movl #0xFEED, @#0x80004200  ; S page 33: guest PTE invalid
	movl @#0x80004200, r4
	halt
	.align 4
pfh:	movl (sp)+, r7       ; fault parameter
	movl (sp)+, r8       ; faulting va
	movl @#0x80000284, r9      ; the PTE for page 33
	bisl2 #0x80000000, r9      ; set valid
	movl r9, @#0x80000284
	mtpr r8, #58         ; TBIS the faulting address
	incl r10             ; count faults
	rei
`, map[vax.Vector]string{vax.VecTransNotValid: "pfh"})
	pte := vax.NewPTE(false, vax.ProtUW, true, 33)
	if !vm.writePhys(gSPT+4*33, uint32(pte)) {
		t.Fatal("setup failed")
	}
	runVM(t, k, vm, 100000)
	c := k.CPU
	if c.R[10] != 1 {
		t.Errorf("fault count = %d, want 1", c.R[10])
	}
	if c.R[4] != 0xFEED {
		t.Errorf("paged write lost: %#x", c.R[4])
	}
	if c.R[8] != 0x80004200 {
		t.Errorf("handler saw va %#x", c.R[8])
	}
	if vm.Stats.ReflectedFaults == 0 {
		t.Error("no reflected fault counted")
	}
}

func TestRingCompressionBlursKernelExecutiveMemory(t *testing.T) {
	// Section 4.3.1 / Table 4: a page the VM protects kernel-write-only
	// is accessible from VM-executive mode — the documented
	// imperfection of memory ring compression. Supervisor access still
	// faults.
	k, vm, _ := bootVM(t, Config{}, `
start:	pushl #0x01400000    ; PSL: cur=executive prv=executive
	pushl #ecode
	rei
	.align 4
ecode:	movl @#0x80004400, r5 ; KW page: REAL executive may read it
	movl #1, r6
	chme #0
	.align 4
chmeh:	pushl #0x02800000    ; PSL: cur=supervisor prv=supervisor
	pushl #score
	rei
	.align 4
score:	movl @#0x80004400, r7 ; supervisor: must fault
	movl #2, r6
	halt
	.align 4
avh:	movl #0xACC, r11
	halt
`+privHandler, map[vax.Vector]string{
		vax.VecAccessViol: "avh",
		vax.VecCHME:       "chmeh",
		vax.VecPrivInstr:  "privh",
	})
	pte := vax.NewPTE(true, vax.ProtKW, true, 34) // page 34 kernel-only
	if !vm.writePhys(gSPT+4*34, uint32(pte)) {
		t.Fatal(err1(t))
	}
	runVM(t, k, vm, 100000)
	c := k.CPU
	if c.R[6] != 1 {
		t.Fatalf("flow error: r6=%d", c.R[6])
	}
	if c.R[11] != 0xACC {
		t.Error("supervisor access to KW page should still fault")
	}
}

func err1(t *testing.T) string { t.Helper(); return "setup failed" }

func TestGuestKCALLConsoleAndDisk(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, `
start:	movl #1, r0          ; console put
	movl #72, r1         ; 'H'
	mtpr #0, #201        ; KCALL
	movl #1, r0
	movl #105, r1        ; 'i'
	mtpr #0, #201
	movl #3, r0          ; disk read
	movl #2, r1          ; block 2
	movl #0x5000, r2     ; VM-phys buffer
	mtpr #0, #201
	tstl r0
	bneq bad
	movl @#0x80005000, r4
	halt
bad:	movl #0xBAD, r4
	halt
`, nil)
	copy(vm.Disk().Image()[2*vax.PageSize:], []byte{0xEF, 0xBE, 0xAD, 0xDE})
	runVM(t, k, vm, 100000)
	if vm.ConsoleOutput() != "Hi" {
		t.Errorf("console = %q", vm.ConsoleOutput())
	}
	if k.CPU.R[4] != 0xDEADBEEF {
		t.Errorf("disk data = %#x", k.CPU.R[4])
	}
	if vm.Stats.KCALLs != 3 {
		t.Errorf("KCALLs = %d", vm.Stats.KCALLs)
	}
	if vm.Disk().Reads != 1 {
		t.Errorf("disk reads = %d", vm.Disk().Reads)
	}
}

func TestGuestDiskCompletionInterrupt(t *testing.T) {
	// The KCALL disk read posts a virtual completion interrupt,
	// delivered when the VM's IPL drops.
	k, vm, _ := bootVM(t, Config{}, `
start:	mtpr #31, #18        ; virtual IPL 31: mask everything
	movl #3, r0
	movl #1, r1
	movl #0x5000, r2
	mtpr #0, #201        ; KCALL disk read
	movl #1, r3          ; no interrupt yet
	mtpr #0, #18         ; drop IPL: completion delivers
	halt
	.align 4
diskh:	movl #0xD15C, r9
	rei
`, map[vax.Vector]string{vax.VecDisk: "diskh"})
	runVM(t, k, vm, 100000)
	c := k.CPU
	if c.R[3] != 1 {
		t.Error("interrupt delivered while IPL masked")
	}
	if c.R[9] != 0xD15C {
		t.Error("disk completion interrupt not delivered")
	}
	if vm.Stats.MTPRIPL != 2 {
		t.Errorf("MTPRIPL = %d", vm.Stats.MTPRIPL)
	}
	if vm.Stats.VirtualIRQs != 1 {
		t.Errorf("VirtualIRQs = %d", vm.Stats.VirtualIRQs)
	}
}

func TestGuestVirtualClock(t *testing.T) {
	// Guest enables its virtual interval clock and counts ticks until 3.
	k, vm, _ := bootVM(t, Config{}, `
start:	mtpr #0x41, #24      ; ICCS: run + interrupt enable
loop:	cmpl r10, #3
	blss loop
	halt
	.align 4
clkh:	incl r10
	mtpr #0xC1, #24      ; acknowledge, keep run+IE
	rei
`, map[vax.Vector]string{vax.VecClock: "clkh"})
	runVM(t, k, vm, 2_000_000)
	if k.CPU.R[10] < 3 {
		t.Errorf("ticks = %d", k.CPU.R[10])
	}
	if vm.Ticks() == 0 {
		t.Error("VM uptime did not advance")
	}
}

func TestUptimeCell(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, `
start:	movl #6, r0          ; set uptime cell
	movl #0x6100, r1
	mtpr #0, #201
	mtpr #0x41, #24      ; enable clock so ticks arrive
loop:	movl @#0x80006100, r5
	cmpl r5, #2
	blss loop
	halt
	.align 4
clkh:	mtpr #0xC1, #24
	rei
`, map[vax.Vector]string{vax.VecClock: "clkh"})
	runVM(t, k, vm, 2_000_000)
	if guestLong(t, vm, 0x6100) < 2 {
		t.Error("uptime cell not maintained by VMM")
	}
	checkSchedLists(t, k)
}

func TestTwoVMsShareProcessor(t *testing.T) {
	src := `
start:	incl r6
	cmpl r6, #40000
	blss start
	halt
`
	img, prog := guestImage(t, src, nil)
	k := New(16<<20, Config{})
	for i := 0; i < 2; i++ {
		vm, err := k.CreateVM(VMConfig{
			MemBytes: gMemSize, Image: img, StartPC: prog.MustSymbol("start"),
			PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
		})
		if err != nil {
			t.Fatal(err)
		}
		vm.SPs[vax.Kernel] = gKSP
	}
	k.Run(5_000_000)
	for _, vm := range k.VMs() {
		if h, msg := vm.Halted(); !h {
			t.Errorf("%s did not finish", vm.Name())
		} else if !strings.Contains(msg, "HALT") {
			t.Errorf("%s: %s", vm.Name(), msg)
		}
	}
	if k.Stats.WorldSwitches < 2 {
		t.Errorf("WorldSwitches = %d", k.Stats.WorldSwitches)
	}
	checkSchedLists(t, k)
}

func TestWAITYieldsProcessor(t *testing.T) {
	// VM 0 waits for a console interrupt that never comes (timeout);
	// VM 1 runs meanwhile. VM 0's WAIT must let VM 1 finish quickly.
	waiter := `
start:	wait
	incl r6
	wait
	incl r6
	halt
`
	worker := `
start:	incl r6
	cmpl r6, #5000
	blss start
	halt
`
	imgW, progW := guestImage(t, waiter, nil)
	imgR, progR := guestImage(t, worker, nil)
	k := New(16<<20, Config{WaitTimeout: 2})
	vmW, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: imgW,
		StartPC: progW.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
	if err != nil {
		t.Fatal(err)
	}
	vmR, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: imgR,
		StartPC: progR.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
	if err != nil {
		t.Fatal(err)
	}
	vmW.SPs[vax.Kernel] = gKSP
	vmR.SPs[vax.Kernel] = gKSP
	k.Run(10_000_000)
	if h, _ := vmR.Halted(); !h {
		t.Error("worker starved")
	}
	if h, _ := vmW.Halted(); !h {
		t.Error("waiter never timed out")
	}
	if vmW.Stats.Waits != 2 {
		t.Errorf("Waits = %d", vmW.Stats.Waits)
	}
	checkSchedLists(t, k)
}

func TestNonexistentMemoryHaltsVM(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, `
start:	movl @#0x80005000, r0
	halt
`, nil)
	// Point S page 40 (va 0x80005000) at a VM-physical frame beyond the
	// VM's memory.
	pte := vax.NewPTE(true, vax.ProtUW, true, 4000)
	if !vm.writePhys(gSPT+4*40, uint32(pte)) {
		t.Fatal("setup failed")
	}
	runVM(t, k, vm, 10000)
	if _, msg := vm.Halted(); !strings.Contains(msg, "nonexistent") {
		t.Errorf("halt reason %q", msg)
	}
}

func TestGuestTBISCoherence(t *testing.T) {
	// Guest changes a *valid* PTE and issues TBIS; the shadow must be
	// refilled from the new PTE.
	k, vm, _ := bootVM(t, Config{}, `
start:	movl #0x11, @#0x80004600     ; touch page 35 (fills shadow)
	movl #0x22, @#0x80004800     ; touch page 36
	movl @#0x8000028C, r0        ; guest PTE for page 35
	movl @#0x80000290, r1        ; guest PTE for page 36
	movl r1, @#0x8000028C        ; repoint page 35 at frame 36
	mtpr #0x80004600, #58        ; TBIS
	movl @#0x80004600, r5        ; now reads frame 36's data
	halt
`, nil)
	runVM(t, k, vm, 10000)
	if k.CPU.R[5] != 0x22 {
		t.Errorf("after TBIS read %#x, want 0x22", k.CPU.R[5])
	}
}

func TestShadowCacheReducesFills(t *testing.T) {
	// Two guest "processes" (two P0 tables in guest S space) touching 8
	// pages each, alternated repeatedly. Without the multi-process
	// cache every switch clears the single shadow table and every touch
	// refaults; with 2 slots only the first round faults (Section 7.2).
	src := `
start:	movl #8, r11         ; rounds
outer:	mtpr #0x80000300, #8 ; P0BR = process A's table (guest S va)
	mtpr #8, #9          ; P0LR = 8 pages
	clrl r2
	clrl r3              ; base va 0
touchA:	movl (r3), r4
	addl2 #512, r3
	aobleq #7, r2, touchA
	mtpr #0x80000340, #8 ; process B
	mtpr #8, #9
	clrl r2
	clrl r3
touchB:	movl (r3), r4
	addl2 #512, r3
	aobleq #7, r2, touchB
	sobgtr r11, outer
	halt
`
	run := func(slots int) uint64 {
		k, vm, _ := bootVM(t, Config{ShadowCacheSlots: slots}, src, nil)
		// Two guest P0 tables at VM-phys 0x300 and 0x340, both mapping
		// P0 pages 0..7 to VM frames 48.. and 56...
		for i := uint32(0); i < 8; i++ {
			vm.writePhys(0x300+4*i, uint32(vax.NewPTE(true, vax.ProtUW, true, 48+i)))
			vm.writePhys(0x340+4*i, uint32(vax.NewPTE(true, vax.ProtUW, true, 56+i)))
		}
		runCheckingSpans(t, k, 10_000_000)
		if h, _ := vm.Halted(); !h {
			t.Fatalf("%d slots: VM did not halt", slots)
		}
		return vm.Stats.ShadowFills
	}
	without := run(1)
	with := run(4)
	if with >= without {
		t.Fatalf("cache did not help: with=%d without=%d", with, without)
	}
	reduction := 1 - float64(with)/float64(without)
	if reduction < 0.5 {
		t.Errorf("reduction only %.0f%% (with=%d without=%d)", reduction*100, with, without)
	}
}

func TestTrapAllSchemeRunsSlower(t *testing.T) {
	src := `
start:	movl #2000, r1
loop:	addl2 #1, r0
	sobgtr r1, loop
	halt
`
	run := func(scheme RingScheme) uint64 {
		k, vm, _ := bootVM(t, Config{Scheme: scheme}, src, nil)
		runVM(t, k, vm, 10_000_000)
		if k.CPU.R[0] != 2000 {
			t.Fatalf("wrong result under %s: %d", scheme, k.CPU.R[0])
		}
		return k.CPU.Cycles
	}
	compression := run(RingCompression)
	trapAll := run(TrapAll)
	if trapAll < compression*5 {
		t.Errorf("trap-all should be much slower: %d vs %d", trapAll, compression)
	}
}

func TestSeparateAddressSpaceCostsMore(t *testing.T) {
	// A syscall-heavy guest pays extra under the separate-address-space
	// scheme (two address-space switches per VMM crossing).
	src := `
start:	movl #300, r10
loop:	chmk #1
	sobgtr r10, loop
	halt
	.align 4
chmk:	addl2 #4, sp
	rei
`
	vectors := map[vax.Vector]string{vax.VecCHMK: "chmk"}
	run := func(scheme RingScheme) uint64 {
		k, vm, _ := bootVM(t, Config{Scheme: scheme}, src, vectors)
		runVM(t, k, vm, 10_000_000)
		return k.CPU.Cycles
	}
	shared := run(RingCompression)
	separate := run(SeparateAddressSpace)
	if separate <= shared {
		t.Errorf("separate address space not costlier: %d vs %d", separate, shared)
	}
}

func TestMMIOEmulatedDiskBaseline(t *testing.T) {
	// The guest drives the disk through memory-mapped registers; the
	// VMM emulates each reference. S page 60 maps the device frame.
	src := `
devpage = 0x80007800
start:	movl #1, @#devpage+4        ; block register
	movl #0x5000, @#devpage+8   ; VM-phys address
	movl #512, @#devpage+12     ; count
	movl #3, @#devpage          ; CSR: GO | read
	movl @#devpage+16, r5       ; status
	movl @#0x80005000, r6       ; transferred data
	halt
`
	img, prog := guestImage(t, src, nil)
	// Map S page 60 at the device frame.
	devPFN := VMDiskBase / vax.PageSize
	binary.LittleEndian.PutUint32(img[gSPT+4*60:], uint32(vax.NewPTE(true, vax.ProtKW, true, devPFN)))
	k := New(8<<20, Config{MMIOEmulatedIO: true})
	vm, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: img,
		StartPC: prog.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
	if err != nil {
		t.Fatal(err)
	}
	vm.SPs[vax.Kernel] = gKSP
	copy(vm.Disk().Image()[vax.PageSize:], []byte{0x78, 0x56, 0x34, 0x12})
	k.Run(1_000_000)
	if h, msg := vm.Halted(); !h || !strings.Contains(msg, "HALT") {
		t.Fatalf("vm state: halted=%t %q pc=%#x", h, msg, k.CPU.PC())
	}
	if k.CPU.R[5] != KCallStatusOK {
		t.Errorf("device status = %d", k.CPU.R[5])
	}
	if k.CPU.R[6] != 0x12345678 {
		t.Errorf("transferred data = %#x", k.CPU.R[6])
	}
	// Every register reference trapped: 4 writes + 1 status read = 5
	// emulations versus 1 KCALL for the same operation (Section 4.4.3).
	if vm.Stats.MMIOEmuls != 5 {
		t.Errorf("MMIOEmuls = %d, want 5", vm.Stats.MMIOEmuls)
	}
}

func TestBootMapenTransition(t *testing.T) {
	// A guest that boots with memory management off and turns it on,
	// using a P0 table that identity-maps its boot pages — the real
	// VMS boot sequence shape. Table 4: MTPR (LDPCTX et al.) traps from
	// VM kernel mode; MAPEN emulation switches the shadow machinery.
	src := `
	.org 0x1000
start:	mtpr #0x200, #12     ; SBR = VM-phys SPT
	mtpr #64, #13        ; SLR
	mtpr #0, #17         ; SCBB
	mtpr #0x300, #8      ; P0BR: guest P0 table (VM-PHYSICAL while off? no - S va)
	nop
	halt
`
	// The simple path: this test drives MTPR MAPEN with a P0 table that
	// identity-maps low memory, then jumps to an S-space address.
	boot := `
	.org 0x1000
start:	mtpr #0x200, #12     ; SBR
	mtpr #64, #13        ; SLR
	mtpr #0, #17         ; SCBB
	mtpr #0x80000300, #8 ; P0BR = S va of the P0 table
	mtpr #16, #9         ; P0LR = 16 pages identity
	mtpr #1, #56         ; MAPEN on; next fetch is P0 va 0x10xx
	jmp @#mapped
	.org 0x1100
mapped = 0x80001100 + 0
	movl #1, r9
	halt
`
	_ = src
	prog, err := asm.Assemble(boot, 0)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, gMemSize)
	copy(img[0:], prog.Code)
	// Guest SPT at 0x200: identity for 64 pages.
	for i := uint32(0); i < 64; i++ {
		binary.LittleEndian.PutUint32(img[gSPT+4*i:], uint32(vax.NewPTE(true, vax.ProtUW, true, i)))
	}
	// Guest P0 table at 0x300: identity for 16 pages.
	for i := uint32(0); i < 16; i++ {
		binary.LittleEndian.PutUint32(img[0x300+4*i:], uint32(vax.NewPTE(true, vax.ProtUW, true, i)))
	}
	k := New(8<<20, Config{})
	vm, err2 := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: img, StartPC: 0x1000})
	if err2 != nil {
		t.Fatal(err2)
	}
	k.Run(100000)
	if h, msg := vm.Halted(); !h || !strings.Contains(msg, "HALT") {
		t.Fatalf("boot failed: halted=%t %q pc=%#x", h, msg, k.CPU.PC())
	}
	if k.CPU.R[9] != 1 {
		t.Error("mapped code did not run")
	}
	if !vm.mapen {
		t.Error("MAPEN emulation failed")
	}
}

// TestGuestInterruptStack: an SCB entry with bit 0 set runs its handler
// on the VM's interrupt stack; REI returns to the interrupted context
// and the normal stack (Section 3.3 semantics inside a VM).
func TestGuestInterruptStack(t *testing.T) {
	k, vm, prog := bootVM(t, Config{}, `
start:	mtpr #0x41, #24      ; virtual clock on
loop:	tstl r10
	beql loop
	movpsl r9            ; back on the kernel stack, IS clear
	halt
	.align 4
clkh:	movpsl r7            ; captured on the interrupt stack
	movl sp, r8
	incl r10
	mtpr #0xC1, #24
	rei
`, nil)
	// Clock vector with the interrupt-stack bit.
	if !vm.writePhys(uint32(vax.VecClock), prog.MustSymbol("clkh")|1) {
		t.Fatal("setup failed")
	}
	runVM(t, k, vm, 2_000_000)
	c := k.CPU
	handlerPSL := vax.PSL(c.R[7])
	if !handlerPSL.IS() {
		t.Error("handler PSL does not show the interrupt stack")
	}
	if handlerPSL.IPL() != vax.IPLClock {
		t.Errorf("handler IPL = %d", handlerPSL.IPL())
	}
	// Handler SP within the guest ISP area (gISP = base + frame).
	if c.R[8] > gISP || c.R[8] < gISP-64 {
		t.Errorf("handler sp = %#x, not on the interrupt stack (%#x)", c.R[8], gISP)
	}
	after := vax.PSL(c.R[9])
	if after.IS() || after.IPL() != 0 {
		t.Errorf("after REI: %s", after)
	}
}
