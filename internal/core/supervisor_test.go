package core

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/vax"
)

// flagGuest is the recovery workhorse: it burns a few ticks (so a
// checkpoint generation exists before anything interesting happens),
// reads its durable flag from disk block 7, and — first life — writes
// the flag and spins without progress events until the watchdog kills
// it. The disk does not roll back with the VM, so the recovered guest
// finds the flag, prints 'R' and halts cleanly: completion is the
// proof that recovery restored it to a useful earlier state.
const flagGuest = `
start:	mtpr #31, #18        ; mask virtual IRQs (no disk handler)
	movl #8000, r11
warm:	sobgtr r11, warm     ; burn ticks: the pre-flag generation
	movl #3, r0          ; KCALL disk read block 7
	movl #7, r1
	movl #0x5000, r2
	mtpr #0, #201
	movl @#0x80005000, r3
	cmpl r3, #0x1234
	beql done
	movl #0x1234, @#0x80005000
	movl #4, r0          ; KCALL disk write block 7: set the flag
	movl #7, r1
	movl #0x5000, r2
	mtpr #0, #201
spin:	incl r5              ; no progress events: trip the watchdog
	brb spin
done:	movl #1, r0          ; print 'R'
	movl #82, r1
	mtpr #0, #201
	halt
`

func TestWatchdogRecovery(t *testing.T) {
	k, vm, _ := bootVM(t, Config{
		Watchdog:        16,
		CheckpointEvery: 3, CheckpointGenerations: 4,
		Recover: true, RecoverBudget: 8,
	}, flagGuest, nil, WithRecorder(trace.NewRecorder(256)))
	runCheckingSpans(t, k, 50_000_000)
	if _, msg := vm.Halted(); !strings.Contains(msg, "HALT") {
		t.Fatalf("halt reason %q, want normal HALT after recovery", msg)
	}
	if out := vm.ConsoleOutput(); out != "R" {
		t.Errorf("console %q, want %q", out, "R")
	}
	if vm.Stats.WatchdogTrips == 0 {
		t.Error("watchdog never tripped: the test exercised nothing")
	}
	if vm.Stats.Recoveries == 0 {
		t.Error("Recoveries = 0, want at least one")
	}
	if vm.Stats.Checkpoints < 2 {
		t.Errorf("Checkpoints = %d, want at least 2", vm.Stats.Checkpoints)
	}
	if vm.Stats.RecoveryEscalations != 0 {
		t.Errorf("RecoveryEscalations = %d, want 0", vm.Stats.RecoveryEscalations)
	}
	if !auditHas(k, trace.EvRecover) {
		t.Error("no vm-recovered audit event")
	}
	if !auditHas(k, trace.EvCheckpoint) {
		t.Error("no checkpoint audit event")
	}
	rec := k.Recorder()
	var sawCkpt, sawRecover bool
	for _, v := range rec.VMs() {
		for _, e := range v.Events(0) {
			switch e.Kind {
			case trace.EvCheckpoint:
				sawCkpt = true
			case trace.EvRecover:
				sawRecover = true
			}
		}
	}
	if !sawCkpt || !sawRecover {
		t.Errorf("trace events checkpoint=%v recover=%v, want both", sawCkpt, sawRecover)
	}
	checkSchedLists(t, k)
}

func TestHandlerlessMCheckRecovery(t *testing.T) {
	// A victim with no machine-check vector reads 8 blocks while a fault
	// plan injects permanent disk errors. Each error is a handler-less
	// machine check — fatal without the supervisor (see
	// TestMachineCheckNoHandlerHaltsVM) — but with recovery armed the VM
	// rolls back to a mid-loop checkpoint and finishes all 8 reads. The
	// seed is fixed; the injection sequence depends only on operation
	// count, so the run is deterministic.
	victim := `
start:	mtpr #31, #18
	clrl r9
vloop:	movl #2000, r10
slow:	sobgtr r10, slow     ; ~1 tick per iteration: checkpoints interleave
	movl #3, r0
	movl r9, r1
	movl #0x5000, r2
	mtpr #0, #201
	incl r9
	cmpl r9, #8
	blss vloop
	movl #1, r0          ; print 'D'
	movl #68, r1
	mtpr #0, #201
	halt
`
	k, vm, _ := bootVM(t, Config{
		CheckpointEvery: 2, CheckpointGenerations: 4,
		Recover: true, RecoverBudget: 16,
	}, victim, nil)
	k.EnableRecorder(64)
	k.AttachFaults(fault.New(3, fault.Config{TargetVM: 0, PermanentDiskRate: 0.25}))
	runCheckingSpans(t, k, 50_000_000)
	if _, msg := vm.Halted(); !strings.Contains(msg, "HALT") {
		t.Fatalf("halt reason %q, want normal HALT after recovery", msg)
	}
	if out := vm.ConsoleOutput(); out != "D" {
		t.Errorf("console %q, want %q (printed once, after the loop)", out, "D")
	}
	if vm.Stats.MachineChecks == 0 {
		t.Error("no machine checks: the fault plan injected nothing")
	}
	if vm.Stats.Recoveries == 0 {
		t.Error("Recoveries = 0, want at least one")
	}
	if vm.Stats.RecoveryEscalations != 0 {
		t.Errorf("RecoveryEscalations = %d, want 0", vm.Stats.RecoveryEscalations)
	}
	if !auditHas(k, trace.EvRecover) {
		t.Error("no vm-recovered audit event")
	}
	checkSchedLists(t, k)
}

func TestRecoveryFallbackOnCorruptGeneration(t *testing.T) {
	// The fault plan poisons the newest generation at recovery time: the
	// supervisor must reject it (CRC) without panicking, fall back to
	// the older generation, and still bring the guest to completion.
	k, vm, _ := bootVM(t, Config{
		Watchdog:        16,
		CheckpointEvery: 3, CheckpointGenerations: 4,
		Recover: true, RecoverBudget: 8,
	}, flagGuest, nil)
	k.EnableRecorder(64)
	inj := fault.New(5, fault.Config{TargetVM: 0, CkptCorruptions: 1})
	k.AttachFaults(inj)
	runCheckingSpans(t, k, 50_000_000)
	if _, msg := vm.Halted(); !strings.Contains(msg, "HALT") {
		t.Fatalf("halt reason %q, want normal HALT after fallback recovery", msg)
	}
	if out := vm.ConsoleOutput(); out != "R" {
		t.Errorf("console %q, want %q", out, "R")
	}
	if vm.Stats.RecoveryFallbacks == 0 {
		t.Error("RecoveryFallbacks = 0: the corrupted generation was not rejected")
	}
	if inj.Stats.CkptCorruptions != 1 {
		t.Errorf("injected ckpt corruptions = %d, want 1", inj.Stats.CkptCorruptions)
	}
	if !auditHas(k, trace.EvRecoveryFallback) {
		t.Error("no recovery-fallback audit event")
	}
	if !auditHas(k, trace.EvFaultInjected) {
		t.Error("no fault-injected audit event")
	}
	if !auditHas(k, trace.EvRecover) {
		t.Error("no vm-recovered audit event")
	}
	checkSchedLists(t, k)
}

func TestRecoveryEscalation(t *testing.T) {
	// A pure runaway never earns progress, so every restored generation
	// spins straight back into the watchdog. With a budget of 1 the
	// second death must escalate to a permanent halt — and the machine
	// must return from Run rather than retry forever. A healthy
	// neighbor's completion shows the machine moved on.
	runaway := `
start:	incl r5
	brb start
`
	worker := `
start:	movl #10, r10
outer:	movl #300, r11
inner:	sobgtr r11, inner
	movl #1, r0
	movl #119, r1        ; 'w'
	mtpr #0, #201
	sobgtr r10, outer
	halt
`
	k, vmR, _ := bootVM(t, Config{
		Watchdog:        4,
		CheckpointEvery: 2, CheckpointGenerations: 2,
		Recover: true, RecoverBudget: 1,
	}, runaway, nil)
	k.EnableRecorder(64)
	imgW, progW := guestImage(t, worker, nil)
	vmW, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: imgW,
		StartPC: progW.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
	if err != nil {
		t.Fatal(err)
	}
	vmW.SPs[vax.Kernel] = gKSP
	runCheckingSpans(t, k, 50_000_000)
	if _, msg := vmR.Halted(); !strings.Contains(msg, "watchdog") {
		t.Errorf("runaway halt reason %q, want watchdog", msg)
	}
	if vmR.Stats.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want exactly the budget (1)", vmR.Stats.Recoveries)
	}
	if vmR.Stats.RecoveryEscalations != 1 {
		t.Errorf("RecoveryEscalations = %d, want 1", vmR.Stats.RecoveryEscalations)
	}
	if !auditHas(k, trace.EvRecoveryEscalated) {
		t.Error("no recovery-escalated audit event")
	}
	// Escalation released the shadow frames: further recovery must refuse.
	if err := k.RecoverNow(vmR); err == nil {
		t.Error("RecoverNow after escalation succeeded, want permanent-halt error")
	}
	if _, msg := vmW.Halted(); !strings.Contains(msg, "HALT") {
		t.Errorf("worker halt reason %q, want normal HALT", msg)
	}
	if out := vmW.ConsoleOutput(); out != strings.Repeat("w", 10) {
		t.Errorf("worker console %q", out)
	}
	checkSchedLists(t, k)
}

func TestRecoverUnderParallel(t *testing.T) {
	// Three flag-guests die by watchdog and recover on their shards
	// while a fourth healthy worker runs; the M:N engine must restore
	// them in place (ClearHalt on the shard CPU, WAIT/decode state
	// rebuilt) and every VM must complete. Watchdog, checkpoints and
	// recovery all key off each VM's own virtual clock, so per-VM
	// behavior is deterministic whatever the interleaving.
	worker := `
start:	movl #10, r10
outer:	movl #300, r11
inner:	sobgtr r11, inner
	movl #1, r0
	movl #119, r1        ; 'w'
	mtpr #0, #201
	sobgtr r10, outer
	halt
`
	k, vm0, _ := bootVM(t, Config{
		Watchdog:        16,
		CheckpointEvery: 3, CheckpointGenerations: 4,
		Recover: true, RecoverBudget: 8,
	}, flagGuest, nil)
	k.EnableRecorder(256)
	victims := []*VM{vm0}
	imgV, progV := guestImage(t, flagGuest, nil)
	for i := 0; i < 2; i++ {
		vm, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: imgV,
			StartPC: progV.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
		if err != nil {
			t.Fatal(err)
		}
		vm.SPs[vax.Kernel] = gKSP
		victims = append(victims, vm)
	}
	imgW, progW := guestImage(t, worker, nil)
	vmW, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: imgW,
		StartPC: progW.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
	if err != nil {
		t.Fatal(err)
	}
	vmW.SPs[vax.Kernel] = gKSP

	k.RunParallel(2, 100_000_000)
	checkShadowSpans(t, k)

	for i, vm := range victims {
		if h, msg := vm.Halted(); !h || !strings.Contains(msg, "HALT") {
			t.Errorf("victim %d: halted=%v reason %q, want normal HALT", i, h, msg)
		}
		if out := vm.ConsoleOutput(); out != "R" {
			t.Errorf("victim %d console %q, want %q", i, out, "R")
		}
		if vm.Stats.Recoveries == 0 {
			t.Errorf("victim %d: Recoveries = 0", i)
		}
	}
	if _, msg := vmW.Halted(); !strings.Contains(msg, "HALT") {
		t.Errorf("worker halt reason %q, want normal HALT", msg)
	}
	if out := vmW.ConsoleOutput(); out != strings.Repeat("w", 10) {
		t.Errorf("worker console %q", out)
	}
	var recoveries, checkpoints uint64
	for _, vm := range k.VMs() {
		recoveries += vm.Stats.Recoveries
		checkpoints += vm.Stats.Checkpoints
	}
	if recoveries < 3 {
		t.Errorf("fleet Recoveries = %d, want >= 3", recoveries)
	}
	if checkpoints == 0 {
		t.Error("fleet Checkpoints = 0")
	}
	checkSchedLists(t, k)
}

func TestRestoreRebasesWaitDeadline(t *testing.T) {
	// Checkpoint a VM mid-WAIT; long after the original absolute
	// deadline has passed, recovery restores that generation. The
	// restored deadline must be remaining-ticks from the restore point —
	// an un-rebased (absolute) deadline would be in the past and wake
	// the guest immediately.
	waiter := `
start:	wait
spin:	incl r5              ; after the wake: die by watchdog
	brb spin
`
	spinner := `
start:	movl #60000, r11
spin:	sobgtr r11, spin
	halt
`
	k, vmWait, _ := bootVM(t, Config{
		WaitTimeout: 40, Watchdog: 8,
		Recover: true, RecoverBudget: 1,
	}, waiter, nil)
	k.EnableRecorder(64)
	imgS, progS := guestImage(t, spinner, nil)
	vmS, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: imgS,
		StartPC: progS.MustSymbol("start"), PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB})
	if err != nil {
		t.Fatal(err)
	}
	vmS.SPs[vax.Kernel] = gKSP

	// Run until the waiter is parked in WAIT but far from its deadline
	// (the spinner keeps the machine busy), then put the mid-WAIT state
	// into the checkpoint ring.
	k.Run(2000)
	if !vmWait.waiting {
		t.Fatal("waiter is not in WAIT at checkpoint time")
	}
	if err := k.CheckpointNow(vmWait); err != nil {
		t.Fatal(err)
	}
	remain := vmWait.waitDeadline - k.Stats.ClockTicks
	if remain < 20 {
		t.Fatalf("only %d ticks remain at checkpoint; test assumes a distant deadline", remain)
	}

	// The waiter wakes at its deadline, spins, trips the watchdog, and
	// recovery restores the mid-WAIT generation; the second wake must
	// come ~remain ticks later, after which the second trip exhausts
	// the budget and the run ends.
	runCheckingSpans(t, k, 100_000_000)
	if _, msg := vmWait.Halted(); !strings.Contains(msg, "watchdog") {
		t.Fatalf("waiter halt reason %q, want watchdog", msg)
	}
	if vmWait.Stats.Recoveries != 1 || vmWait.Stats.RecoveryEscalations != 1 {
		t.Fatalf("Recoveries=%d Escalations=%d, want 1/1",
			vmWait.Stats.Recoveries, vmWait.Stats.RecoveryEscalations)
	}
	var recoverCycle uint64
	for _, e := range k.Recorder().Audit() {
		if e.Kind == trace.EvRecover {
			recoverCycle = e.Cycle
		}
	}
	if recoverCycle == 0 {
		t.Fatal("no vm-recovered audit event")
	}
	period := uint64(clockPeriod)
	wokeTicks := (vmWait.HaltCycles() - recoverCycle) / period
	if wokeTicks < remain {
		t.Errorf("restored waiter died %d ticks after recovery, want >= the %d remaining at checkpoint (deadline not rebased?)",
			wokeTicks, remain)
	}
	if wokeTicks > remain+16 {
		t.Errorf("restored waiter died %d ticks after recovery, want about %d remaining + the 8-tick watchdog", wokeTicks, remain)
	}
	checkSchedLists(t, k)
}

func TestRestoreInvalidatesDecodeCache(t *testing.T) {
	// The checkpoint holds `movl #1, r6`; after the checkpoint the host
	// patches the literal to 2 and the guest executes the patched
	// instruction (populating the decode cache with it). Rolling back
	// must restore the old bytes AND drop the cached decode — a stale
	// cache would execute the patched instruction from pre-rollback.
	// The guest prints the digit it computed ('1' unpatched, '2'
	// patched) — console output survives the rollback, so it records
	// which bytes each life executed. The patched life spins into the
	// watchdog; the restored life halts cleanly.
	k, vm, prog := bootVM(t, Config{
		Watchdog: 8, Recover: true, RecoverBudget: 4,
	}, `
start:	mtpr #31, #18
	movl #6000, r11
warm:	sobgtr r11, warm
patch:	movl #1, r6
	cmpl r6, #2
	beql two
	movl #49, r1         ; '1'
	brb put
two:	movl #50, r1         ; '2'
put:	movl #1, r0
	mtpr #0, #201
	cmpl r6, #2
	beql spin
	halt
spin:	incl r5              ; patched path: die by watchdog
	brb spin
`, nil)
	k.Run(50) // inside the warmup spin, before the patch site executes
	if h, _ := vm.Halted(); h {
		t.Fatal("guest finished before the checkpoint")
	}
	if err := k.CheckpointNow(vm); err != nil {
		t.Fatal(err)
	}

	// Patch the short literal at patch+1 from 1 to 2.
	patchPhys := prog.MustSymbol("patch") - vax.SystemBase
	old, ok := vm.readPhys(patchPhys)
	if !ok {
		t.Fatal("readPhys failed")
	}
	if byte(old>>8) != 0x01 {
		t.Fatalf("unexpected encoding %#x at patch site, want literal 0x01 in byte 1", old)
	}
	if !vm.writePhys(patchPhys, old&^uint32(0xFF00)|0x0200) {
		t.Fatal("writePhys failed")
	}
	runCheckingSpans(t, k, 50_000_000)
	if _, msg := vm.Halted(); !strings.Contains(msg, "HALT") {
		t.Fatalf("halt reason %q, want clean HALT from the restored life", msg)
	}
	if out := vm.ConsoleOutput(); out != "21" {
		t.Errorf("console %q, want %q (patched life then restored life)", out, "21")
	}
	if k.CPU.R[6] != 1 {
		t.Errorf("restored guest set R6=%d, want 1 (stale decode cache?)", k.CPU.R[6])
	}
	if vm.Stats.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", vm.Stats.Recoveries)
	}
	checkSchedLists(t, k)
}

func TestCheckpointStreamRoundTripNewVM(t *testing.T) {
	// WriteCheckpoint → ReadCheckpoint builds a second, equivalent VM in
	// the same monitor: the externalized stream is complete.
	k, vm, _ := bootVM(t, Config{}, `
start:	movl #1, r0          ; print 'a'
	movl #97, r1
	mtpr #0, #201
	movl #0x77, @#0x80005800
	movl #9000, r11
spin:	sobgtr r11, spin
	movl #1, r0          ; print 'b' (only after the spin)
	movl #98, r1
	mtpr #0, #201
	halt
`, nil)
	k.Run(200) // past the store and first print, inside the spin
	if h, _ := vm.Halted(); h {
		t.Fatal("guest finished before the checkpoint")
	}
	img, err := k.Snapshot(vm)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := k.Restore("clone", img)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	for i, v := range []*VM{vm, clone} {
		if _, msg := v.Halted(); !strings.Contains(msg, "HALT") {
			t.Errorf("vm %d halt reason %q", i, msg)
		}
		if got := guestLong(t, v, 0x5800); got != 0x77 {
			t.Errorf("vm %d data word %#x, want 0x77", i, got)
		}
		if out := v.ConsoleOutput(); out != "ab" {
			t.Errorf("vm %d console %q, want %q", i, out, "ab")
		}
	}
	checkSchedLists(t, k)
}

// TestSetCheckpointPolicy: the run-time setter refuses a ring depth
// Validate would refuse, leaving the policy as it was, and each VM's
// ring takes a new depth at its next checkpoint, keeping its newest
// generations.
func TestSetCheckpointPolicy(t *testing.T) {
	k, vm, _ := bootVM(t, Config{CheckpointEvery: 1, CheckpointGenerations: 2}, `
start:	brb start
`, nil)
	for _, gens := range []int{-1, 65, 1000} {
		if err := k.SetCheckpointPolicy(1, gens); err == nil {
			t.Errorf("SetCheckpointPolicy(1, %d) accepted", gens)
		}
		if cfg := k.Config(); cfg.CheckpointEvery != 1 || cfg.CheckpointGenerations != 2 {
			t.Errorf("refused SetCheckpointPolicy(1, %d) left every %d, %d generations",
				gens, cfg.CheckpointEvery, cfg.CheckpointGenerations)
		}
	}

	checkpoints := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := k.CheckpointNow(vm); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkpoints(5)
	if got := vm.CheckpointGenerations(); got != 2 {
		t.Fatalf("ring holds %d generations, want 2", got)
	}
	if err := k.SetCheckpointPolicy(1, 6); err != nil {
		t.Fatal(err)
	}
	for want := 3; want <= 6; want++ {
		checkpoints(1)
		if got := vm.CheckpointGenerations(); got != want {
			t.Fatalf("after deepening to 6, ring holds %d generations, want %d", got, want)
		}
	}
	checkpoints(3)
	if got := vm.CheckpointGenerations(); got != 6 {
		t.Fatalf("ring of 6 holds %d generations", got)
	}

	newest := []*generation{vm.checkpointGen(0), vm.checkpointGen(1)}
	if err := k.SetCheckpointPolicy(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := k.SetCheckpointPolicy(4, 0); err != nil || k.Config().CheckpointGenerations != 3 {
		t.Fatalf("SetCheckpointPolicy(4, 0) = %v, depth %d; want the depth kept at 3", err, k.Config().CheckpointGenerations)
	}
	checkpoints(1)
	if got := vm.CheckpointGenerations(); got != 3 {
		t.Fatalf("after shortening to 3, ring holds %d generations", got)
	}
	if vm.checkpointGen(1) != newest[0] || vm.checkpointGen(2) != newest[1] || vm.checkpointGen(3) != nil {
		t.Error("shortening the ring did not keep the newest generations")
	}
}
