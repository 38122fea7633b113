package core

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/vax"
)

// auditHas reports whether the audit view contains an event of kind.
func auditHas(k *VMM, kind trace.Kind) bool {
	for _, e := range k.Recorder().Audit() {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

func TestKCALLDiskTransientRetriedOK(t *testing.T) {
	// Every disk operation starts a one-attempt transient burst: the
	// VMM's retry loop must absorb it and return success to the guest.
	k, vm, _ := bootVM(t, Config{}, `
start:	mtpr #31, #18        ; mask the completion interrupt
	movl #3, r0          ; KCALL disk read
	movl #2, r1
	movl #0x5000, r2
	mtpr #0, #201
	movl r0, @#0x80006000
	movl @#0x80005000, r4
	halt
`, nil)
	k.EnableRecorder(32)
	inj := fault.New(7, fault.Config{TargetVM: 0, TransientDiskRate: 1, TransientBurst: 1})
	k.AttachFaults(inj)
	copy(vm.Disk().Image()[2*vax.PageSize:], []byte{0xEF, 0xBE, 0xAD, 0xDE})
	runVM(t, k, vm, 100000)
	if got := guestLong(t, vm, 0x6000); got != KCallStatusOK {
		t.Errorf("KCALL status = %d, want OK", got)
	}
	if k.CPU.R[4] != 0xDEADBEEF {
		t.Errorf("disk data after retry = %#x", k.CPU.R[4])
	}
	if vm.Stats.DiskRetries != 1 {
		t.Errorf("DiskRetries = %d, want 1", vm.Stats.DiskRetries)
	}
	if vm.Stats.MachineChecks != 0 {
		t.Errorf("MachineChecks = %d, want 0", vm.Stats.MachineChecks)
	}
	if inj.Stats.TransientFails != 1 {
		t.Errorf("injected transient fails = %d, want 1", inj.Stats.TransientFails)
	}
	if !auditHas(k, trace.EvKCallRetry) {
		t.Error("no disk-retry audit event")
	}
}

func TestKCALLDiskPermanentDeliversMachineCheck(t *testing.T) {
	// A permanent device error must surface as a virtual machine check
	// through the VM's own SCB, with {byte count, cause, info}
	// parameters the handler can pop, and an error status in R0.
	k, vm, _ := bootVM(t, Config{}, `
start:	clrl r9
	movl #3, r0          ; KCALL disk read
	movl #2, r1
	movl #0x5000, r2
	mtpr #0, #201
	movl r0, @#0x80006000
	movl r9, @#0x80006004
	movl r7, @#0x80006008
	movl r8, @#0x8000600C
	movl r11, @#0x80006010
	halt
	.align 4
mckh:	incl r9
	movl (sp)+, r7       ; parameter byte count
	movl (sp)+, r8       ; cause code
	movl (sp)+, r11      ; cause info
	rei
`, map[vax.Vector]string{vax.VecMachineCheck: "mckh"})
	k.EnableRecorder(32)
	k.AttachFaults(fault.New(7, fault.Config{TargetVM: 0, PermanentDiskRate: 1}))
	runVM(t, k, vm, 100000)
	if got := guestLong(t, vm, 0x6000); got != KCallStatusError {
		t.Errorf("KCALL status = %d, want error", got)
	}
	if got := guestLong(t, vm, 0x6004); got != 1 {
		t.Errorf("guest saw %d machine checks, want 1", got)
	}
	if got := guestLong(t, vm, 0x6008); got != 8 {
		t.Errorf("parameter byte count = %d, want 8", got)
	}
	if got := guestLong(t, vm, 0x600C); got != MCheckDiskError {
		t.Errorf("cause code = %d, want MCheckDiskError", got)
	}
	if got := guestLong(t, vm, 0x6010); got != 2 {
		t.Errorf("cause info = %d, want failing block 2", got)
	}
	if vm.Stats.MachineChecks != 1 {
		t.Errorf("MachineChecks = %d, want 1", vm.Stats.MachineChecks)
	}
	if vm.Stats.DiskRetries != 0 {
		t.Errorf("DiskRetries = %d, want 0 (permanent errors are not retried)", vm.Stats.DiskRetries)
	}
	if !auditHas(k, trace.EvMachineCheck) {
		t.Error("no machine-check audit event")
	}
}

func TestMachineCheckNoHandlerHaltsVM(t *testing.T) {
	// A VM with no machine-check vector cannot absorb the error: the
	// VMM halts that VM (and only that VM) rather than corrupting it.
	k, vm, _ := bootVM(t, Config{}, `
start:	movl #3, r0
	movl #2, r1
	movl #0x5000, r2
	mtpr #0, #201
	halt
`, nil)
	k.AttachFaults(fault.New(7, fault.Config{TargetVM: 0, PermanentDiskRate: 1}))
	runVM(t, k, vm, 100000)
	if _, msg := vm.Halted(); !strings.Contains(msg, "no handler") {
		t.Errorf("halt reason %q, want missing-handler halt", msg)
	}
	if vm.Stats.MachineChecks != 1 {
		t.Errorf("MachineChecks = %d, want 1", vm.Stats.MachineChecks)
	}
}

func TestUnknownKCALLCountedAndAudited(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, `
start:	movl #99, r0         ; no such KCALL function
	mtpr #0, #201
	movl r0, @#0x80006000
	halt
`, nil)
	k.EnableRecorder(16)
	runVM(t, k, vm, 100000)
	if got := guestLong(t, vm, 0x6000); got != KCallStatusError {
		t.Errorf("KCALL status = %d, want error", got)
	}
	if vm.Stats.UnknownKCALLs != 1 {
		t.Errorf("UnknownKCALLs = %d, want 1", vm.Stats.UnknownKCALLs)
	}
	if !auditHas(k, trace.EvUnknownKCALL) {
		t.Error("no unknown-kcall audit event")
	}
}

func TestKCALLDiskTransferNoAlloc(t *testing.T) {
	// A disk transfer must not allocate per call in either direction,
	// whether KCALL starts it or a GO written to the emulated
	// controller's CSR does.
	k, vm, _ := bootVM(t, Config{}, `
start:	halt
`, nil)
	read := testing.AllocsPerRun(200, func() {
		if err := k.diskTransfer(vm, false, 1, 0x5000, 0); err != nil {
			t.Fatal(err)
		}
	})
	write := testing.AllocsPerRun(200, func() {
		if err := k.diskTransfer(vm, true, 1, 0x5000, 0); err != nil {
			t.Fatal(err)
		}
	})
	k.diskRegWrite(vm, devRegBlock, 1)
	k.diskRegWrite(vm, devRegAddr, 0x5000)
	k.diskRegWrite(vm, devRegCount, vax.PageSize)
	mmio := func(fn uint32) float64 {
		return testing.AllocsPerRun(200, func() {
			k.diskRegWrite(vm, devRegCSR, fn|devCSRGo)
			if vm.disk.stat != KCallStatusOK {
				t.Fatalf("MMIO transfer status %d, want OK", vm.disk.stat)
			}
		})
	}
	mmioRead, mmioWrite := mmio(devFuncRead), mmio(devFuncWrite)
	if read != 0 || write != 0 || mmioRead != 0 || mmioWrite != 0 {
		t.Errorf("allocs per transfer: KCALL read %.1f write %.1f, MMIO read %.1f write %.1f, want 0",
			read, write, mmioRead, mmioWrite)
	}
}

func TestWatchdogHaltsOnlyRunaway(t *testing.T) {
	// A VM that spins without a progress event exhausts its watchdog
	// budget and is halted; a working neighbor is untouched.
	worker := `
start:	movl #20, r10
outer:	movl #200, r11
inner:	sobgtr r11, inner
	movl #1, r0          ; KCALL console put (a progress event)
	movl #46, r1
	mtpr #0, #201
	sobgtr r10, outer
	halt
`
	runaway := `
start:	incl r5
	brb start
`
	k, vmW, _ := bootVM(t, Config{Watchdog: 4}, worker, nil)
	k.EnableRecorder(64)
	imgR, progR := guestImage(t, runaway, nil)
	vmR, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: imgR,
		StartPC: progR.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
	if err != nil {
		t.Fatal(err)
	}
	vmR.SPs[vax.Kernel] = gKSP
	k.Run(10_000_000)
	if _, msg := vmW.Halted(); !strings.Contains(msg, "HALT") {
		t.Errorf("worker halt reason %q, want normal HALT", msg)
	}
	if _, msg := vmR.Halted(); !strings.Contains(msg, "watchdog") {
		t.Errorf("runaway halt reason %q, want watchdog", msg)
	}
	if vmR.Stats.WatchdogTrips != 1 {
		t.Errorf("runaway WatchdogTrips = %d, want 1", vmR.Stats.WatchdogTrips)
	}
	if vmW.Stats.WatchdogTrips != 0 {
		t.Errorf("worker WatchdogTrips = %d, want 0", vmW.Stats.WatchdogTrips)
	}
	if vmW.ConsoleOutput() != strings.Repeat(".", 20) {
		t.Errorf("worker console = %q", vmW.ConsoleOutput())
	}
	if !auditHas(k, trace.EvWatchdogTrip) {
		t.Error("no watchdog-trip audit event")
	}
	checkSchedLists(t, k)
}

func TestShadowSelfCheckRepairsCorruption(t *testing.T) {
	// Corrupt a live shadow PTE by hand; the self-check pass must spot
	// the divergence from the guest's tables, clear it to the null PTE,
	// and the guest's next reference must demand-refill correctly.
	k, vm, _ := bootVM(t, Config{}, `
start:	movl #0x5A5A, @#0x80004600   ; S page 35: fill shadow, write data
	movl #4000, r11
spin:	sobgtr r11, spin
	movl @#0x80004600, r3        ; reread through the repaired shadow
	halt
`, nil)
	k.EnableRecorder(32)
	k.Run(60) // past the store, inside the spin
	if h, _ := vm.Halted(); h {
		t.Fatal("guest finished before the corruption window")
	}
	checkShadowSpans(t, k)

	// Repoint the shadow PTE for S VPN 35 at the wrong frame.
	slot := vm.shadow.spt.phys + 4*35
	v, err := k.Mem.LoadLong(slot)
	if err != nil || !vax.PTE(v).Valid() {
		t.Fatalf("shadow PTE for VPN 35 not live: %#x %v", v, err)
	}
	pte := vax.PTE(v)
	if serr := k.Mem.StoreLong(slot, uint32(vax.NewPTE(true, pte.Prot(), pte.Modified(), pte.PFN()^1))); serr != nil {
		t.Fatal(serr)
	}
	k.CPU.MMU.TBIS(vax.SystemBase + 35*vax.PageSize)

	if repairs := k.SelfCheck(); repairs != 1 {
		t.Errorf("SelfCheck repaired %d PTEs, want 1", repairs)
	}
	if vm.Stats.SelfCheckRepairs != 1 {
		t.Errorf("SelfCheckRepairs = %d, want 1", vm.Stats.SelfCheckRepairs)
	}
	if repairs := k.SelfCheck(); repairs != 0 {
		t.Errorf("second pass repaired %d PTEs, want 0", repairs)
	}
	if !auditHas(k, trace.EvSelfCheckRepair) {
		t.Error("no selfcheck-repair audit event")
	}
	checkShadowSpans(t, k)

	runVM(t, k, vm, 1_000_000)
	if k.CPU.R[3] != 0x5A5A {
		t.Errorf("guest reread %#x through repaired shadow, want 0x5A5A", k.CPU.R[3])
	}
}

// twoVMIsolationRun boots a disk-working victim and a printing
// bystander, optionally injecting a certain permanent disk error into
// the victim, and returns the pair after the machine halts.
func twoVMIsolationRun(t *testing.T, inject bool) (*VMM, *VM, *VM) {
	t.Helper()
	victim := `
start:	clrl r11
vloop:	movl #3, r0          ; KCALL disk read
	movl r11, r1
	movl #0x5000, r2
	mtpr #0, #201
	incl r11
	cmpl r11, #8
	blss vloop
	halt
	.align 4
dskh:	rei
	.align 4
mckh:	halt                 ; guest gives up on its first machine check
`
	bystander := `
start:	movl #20, r10
outer:	movl #300, r11
inner:	sobgtr r11, inner
	movl #1, r0
	movl #98, r1         ; 'b'
	mtpr #0, #201
	sobgtr r10, outer
	halt
`
	k, vmV, _ := bootVM(t, Config{}, victim, map[vax.Vector]string{
		vax.VecMachineCheck: "mckh",
		vax.VecDisk:         "dskh",
	})
	imgB, progB := guestImage(t, bystander, nil)
	vmB, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: imgB,
		StartPC: progB.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
	if err != nil {
		t.Fatal(err)
	}
	vmB.SPs[vax.Kernel] = gKSP
	if inject {
		k.AttachFaults(fault.New(11, fault.Config{TargetVM: 0, PermanentDiskRate: 1}))
	}
	k.Run(10_000_000)
	return k, vmV, vmB
}

func TestFaultIsolationTwoVMs(t *testing.T) {
	// Baseline: the victim reads 8 blocks and halts normally.
	_, baseV, baseB := twoVMIsolationRun(t, false)
	if _, msg := baseV.Halted(); !strings.Contains(msg, "HALT") {
		t.Fatalf("baseline victim halt %q", msg)
	}
	baseOut := baseB.ConsoleOutput()
	baseCycles := baseB.HaltCycles()
	if baseOut != strings.Repeat("b", 20) {
		t.Fatalf("baseline bystander console %q", baseOut)
	}

	// Injected: the victim machine-checks on its first disk read and
	// its handler gives up. The bystander must not notice.
	_, vmV, vmB := twoVMIsolationRun(t, true)
	if vmV.Stats.MachineChecks != 1 {
		t.Errorf("victim MachineChecks = %d, want 1", vmV.Stats.MachineChecks)
	}
	if h, _ := vmV.Halted(); !h {
		t.Error("victim did not halt")
	}
	if out := vmB.ConsoleOutput(); out != baseOut {
		t.Errorf("bystander console changed: %q vs %q", out, baseOut)
	}
	if vmB.Stats.MachineChecks != 0 || vmB.Stats.DiskRetries != 0 {
		t.Errorf("bystander saw injected faults: %+v", vmB.Stats)
	}
	c := vmB.HaltCycles()
	lo, hi := baseCycles-baseCycles/10, baseCycles+baseCycles/10
	if c < lo || c > hi {
		t.Errorf("bystander halted at cycle %d, outside ±10%% of baseline %d", c, baseCycles)
	}
}

func TestScheduleNextAllWaitingIdleWake(t *testing.T) {
	// Both VMs WAIT: the machine must idle in real WAIT and the next
	// expiring deadline must wake the right VM — A, which waited first.
	waiterA := `
start:	wait
	halt
`
	waiterB := `
start:	movl #6000, r11
spin:	sobgtr r11, spin
	wait
	halt
`
	k, vmA, _ := bootVM(t, Config{WaitTimeout: 4}, waiterA, nil)
	imgB, progB := guestImage(t, waiterB, nil)
	vmB, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: imgB,
		StartPC: progB.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
	if err != nil {
		t.Fatal(err)
	}
	vmB.SPs[vax.Kernel] = gKSP
	k.Run(10_000_000)
	if h, _ := vmA.Halted(); !h {
		t.Fatal("waiter A never woke")
	}
	if h, _ := vmB.Halted(); !h {
		t.Fatal("waiter B never woke")
	}
	period := uint64(clockPeriod)
	if vmA.HaltCycles() < 4*period {
		t.Errorf("A halted at cycle %d, before its WAIT deadline (tick 4)", vmA.HaltCycles())
	}
	if vmA.HaltCycles() >= vmB.HaltCycles() {
		t.Errorf("wake order wrong: A at %d, B at %d", vmA.HaltCycles(), vmB.HaltCycles())
	}
	if vmA.Stats.Waits != 1 || vmB.Stats.Waits != 1 {
		t.Errorf("Waits = %d/%d, want 1/1", vmA.Stats.Waits, vmB.Stats.Waits)
	}
	checkSchedLists(t, k)
}

// TestSelfCheckSkipsUndispatchedClone: a clone has no shadow tables
// until its first dispatch, so the periodic self-check that reaches it
// earlier, and an injected shadow-PTE corruption aimed at it, must skip
// it rather than fault the host.
func TestSelfCheckSkipsUndispatchedClone(t *testing.T) {
	t.Run("self-check", func(t *testing.T) {
		k, src, _ := bootVM(t, Config{SelfCheckInterval: 1}, cloneComputeSrc, nil)
		c, err := k.Clone(src, "c")
		if err != nil {
			t.Fatal(err)
		}
		k.Run(10_000_000)
		assertAllHaltedNormally(t, []*VM{src, c})
		checkSchedLists(t, k)
	})
	t.Run("injected corruption", func(t *testing.T) {
		k, src, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
		c, err := k.Clone(src, "c")
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.New(1, fault.Config{TargetVM: c.ID, PTECorruptions: 2, Horizon: 1})
		k.AttachFaults(inj)
		k.Run(10_000_000)
		assertAllHaltedNormally(t, []*VM{src, c})
		if inj.Stats.PTECorruptions != 0 {
			t.Errorf("%d corruptions applied to a clone with no shadow tables", inj.Stats.PTECorruptions)
		}
		checkSchedLists(t, k)
	})
}
