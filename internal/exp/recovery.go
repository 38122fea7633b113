package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
)

// The recovery campaign (experiment E11): E10's isolation story with
// the supervisor armed. Two victims die recoverably — one stalls into
// the watchdog, one takes handler-less machine checks from injected
// permanent disk errors — and both must be rolled back to a checkpoint
// generation and driven to clean completion, while a bystander's
// output and timing stay within the same 10% envelope E10 enforces.
// The fault plan also poisons checkpoint generations at recovery time,
// so every seed exercises the CRC-rejection + generation-fallback path
// end to end.

// Watchdog victim: warms up over ~10 ticks with a console-get KCALL
// per round — a progress event with no output side effect — so the
// ring holds several distinct pre-stall generations and a recovered
// life re-earns progress (resetting the generation fallback) before it
// retries anything dangerous. It then consults a durable flag on disk
// block 7. First life: write the flag and spin without progress until
// the watchdog kills it. The disk does not roll back, so the recovered
// life finds the flag, prints 'R' and halts — completion is the proof
// that recovery restored a useful earlier state.
const wdVictimSrc = `
start:	mtpr #31, #18        ; mask virtual IRQs (no handlers installed)
	movl #6, r8
wout:	movl #4000, r11
warm:	sobgtr r11, warm
	movl #2, r0          ; KCALL console get: progress, no output
	mtpr #0, #201
	sobgtr r8, wout
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

// Machine-check victim: the same progress-bearing warmup, then 16 disk
// reads with no machine-check vector, so every injected permanent
// error is a handler-less machine check — a fatal death without the
// supervisor. The slow inner spin spreads the reads over many ticks so
// checkpoint generations interleave with them, and the rolled-back
// guest re-runs only a bounded tail of the loop (each successful read
// is itself a progress event, so consecutive faults on one block step
// back at most a generation or two before a fresh draw succeeds).
const mcVictimSrc = `
start:	mtpr #31, #18
	movl #6, r8
wout:	movl #4000, r11
warm:	sobgtr r11, warm
	movl #2, r0          ; KCALL console get: progress, no output
	mtpr #0, #201
	sobgtr r8, wout
	clrl r9
vloop:	movl #2000, r10
slow:	sobgtr r10, slow
	movl #3, r0          ; KCALL disk read block r9
	movl r9, r1
	movl #0x5000, r2
	mtpr #0, #201
	incl r9
	cmpl r9, #16
	blss vloop
	movl #1, r0          ; print 'D'
	movl #68, r1
	mtpr #0, #201
	halt
`

// Recovery bystander: E10's bystander stretched to 2400 rounds. Every
// recovery honestly replays a rolled-back tail of a victim's work, so
// the absolute overhead per seed is bounded but not zero; the
// isolation claim is that a long-running neighbor amortizes it below
// the 10% envelope (the same reasoning E10 applies to fault-handling
// overhead).
const recoveryBystanderSrc = `
start:	movl #2400, r10
outer:	movl #600, r11
inner:	sobgtr r11, inner
	movl #1, r0          ; KCALL console put
	movl #46, r1         ; '.'
	mtpr #0, #201
	sobgtr r10, outer
	movl #1, r0
	movl #33, r1         ; '!'
	mtpr #0, #201
	halt
`

// recoveryGuests are E11's three VMs: the watchdog victim, the
// machine-check victim and the bystander.
var recoveryGuests = []guest{
	{"wd-victim", wdVictimSrc, nil},
	{"mc-victim", mcVictimSrc, nil},
	{"bystander", recoveryBystanderSrc, nil},
}

// recoveryMachine builds the three-VM armed machine, optionally with a
// fault plan, and runs it to completion.
func recoveryMachine(inj *fault.Injector) (*core.VMM, []*core.VM, error) {
	return runGuests(core.Config{
		Watchdog:        8,
		CheckpointEvery: 3, CheckpointGenerations: 6,
		Recover: true, RecoverBudget: 24,
	}, recoveryGuests, inj, 60_000_000)
}

// recoverySeedRun runs one seed of the recovery campaign and returns
// the violated invariants (empty = the seed passed). A Go panic counts
// as a violation rather than killing the campaign.
func recoverySeedRun(seed int64, baseOut string, baseCycles, baseUsed uint64) (inj *fault.Injector, vms []*core.VM, violations []string) {
	defer func() {
		if r := recover(); r != nil {
			violations = append(violations, fmt.Sprintf("Go panic: %v", r))
		}
	}()
	inj = fault.New(seed, fault.Config{
		TargetVMs:         []int{0, 1}, // both victims, never the bystander
		PermanentDiskRate: 0.25,
		CkptCorruptions:   2,
		Horizon:           40,
	})
	k, vms, err := recoveryMachine(inj)
	if err != nil {
		return inj, vms, []string{err.Error()}
	}
	k.Release()
	wd, mc, bystander := vms[0], vms[1], vms[2]

	bad := func(format string, args ...interface{}) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	for _, v := range []struct {
		vm  *core.VM
		out string
	}{{wd, "R"}, {mc, "D"}} {
		if h, msg := v.vm.Halted(); !h || msg != vmHaltNormal {
			bad("%s did not complete normally: halted=%t %q", v.vm.Name(), h, msg)
		}
		if out := v.vm.ConsoleOutput(); out != v.out {
			bad("%s console %q, want %q (printed once, by the recovered life)",
				v.vm.Name(), out, v.out)
		}
		if v.vm.Stats.Recoveries == 0 {
			bad("%s was never recovered", v.vm.Name())
		}
		if v.vm.Stats.RecoveryEscalations != 0 {
			bad("%s escalated to a permanent halt", v.vm.Name())
		}
	}
	if wd.Stats.WatchdogTrips == 0 {
		bad("wd-victim never tripped the watchdog")
	}
	if mc.Stats.MachineChecks == 0 {
		bad("mc-victim saw no machine checks: the plan injected nothing")
	}
	if h, msg := bystander.Halted(); !h || msg != vmHaltNormal {
		bad("bystander did not complete normally: halted=%t %q", h, msg)
	}
	if out := bystander.ConsoleOutput(); out != baseOut {
		bad("bystander console changed: %q vs baseline %q", out, baseOut)
	}
	if c := bystander.HaltCycles(); c > baseCycles+baseCycles/10 {
		bad("bystander finished at cycle %d, beyond 110%% of fault-free %d", c, baseCycles)
	}
	if u := bystander.CyclesUsed(); u > baseUsed+baseUsed/10 {
		bad("bystander consumed %d cycles, beyond 110%% of fault-free %d", u, baseUsed)
	}
	if bystander.Stats.Recoveries != 0 || bystander.Stats.MachineChecks != 0 {
		bad("bystander was touched: %d recoveries, %d machine checks",
			bystander.Stats.Recoveries, bystander.Stats.MachineChecks)
	}
	if inj.Stats.CkptCorruptions == 0 {
		bad("no checkpoint generation was poisoned: fallback path untested")
	}
	if fb := wd.Stats.RecoveryFallbacks + mc.Stats.RecoveryFallbacks; fb < inj.Stats.CkptCorruptions {
		bad("fallbacks %d < poisoned generations %d: a corrupted image was accepted",
			fb, inj.Stats.CkptCorruptions)
	}
	return inj, vms, violations
}

// RecoveryCampaign runs the multi-seed recovery campaign and reports
// per-seed recovery counts and the verdict.
func RecoveryCampaign(seeds []int64) (*Result, error) {
	r := &Result{
		ID:    "E11",
		Title: "Recovery campaign: checkpointed VMs survive injected deaths",
		Headers: []string{"seed", "wd recov", "mc recov", "mchecks", "fallbacks",
			"poisoned", "bystander cycles", "verdict"},
		PaperClaim: "a VMM that contains guest failures (Section 5) can also undo them: every recoverable death rolls back to a valid checkpoint and the VM completes, at no cost to its neighbors",
	}

	// Fault-free baseline on the same armed machine: checkpoint overhead
	// is part of the baseline, recovery overhead is what the campaign
	// adds on top.
	kBase, base, err := recoveryMachine(nil)
	if err != nil {
		return nil, err
	}
	kBase.Release()
	if h, msg := base[2].Halted(); !h || msg != vmHaltNormal {
		return nil, fmt.Errorf("baseline bystander did not complete: %q", msg)
	}
	// The fault-free watchdog victim still dies once (the flag path is
	// its normal first life) and must recover even without a plan.
	if base[0].Stats.Recoveries == 0 {
		return nil, fmt.Errorf("baseline wd-victim was never recovered")
	}
	baseOut := base[2].ConsoleOutput()
	baseCycles := base[2].HaltCycles()
	baseUsed := base[2].CyclesUsed()
	r.addNote("baseline (armed, fault-free): bystander prints %d chars, consumes %d cycles, halts at cycle %d",
		len(baseOut), baseUsed, baseCycles)

	failed := 0
	for _, seed := range seeds {
		inj, vms, violations := recoverySeedRun(seed, baseOut, baseCycles, baseUsed)
		verdict := "pass"
		if len(violations) > 0 {
			verdict = "FAIL"
			failed++
		}
		var wdRec, mcRec, mchecks, fallbacks, cycles uint64
		if len(vms) == 3 {
			wdRec = vms[0].Stats.Recoveries
			mcRec = vms[1].Stats.Recoveries
			mchecks = vms[1].Stats.MachineChecks
			fallbacks = vms[0].Stats.RecoveryFallbacks + vms[1].Stats.RecoveryFallbacks
			cycles = vms[2].HaltCycles()
		}
		r.addRow(fmt.Sprint(seed),
			fmt.Sprint(wdRec),
			fmt.Sprint(mcRec),
			fmt.Sprint(mchecks),
			fmt.Sprint(fallbacks),
			fmt.Sprint(inj.Stats.CkptCorruptions),
			fmt.Sprint(cycles),
			verdict)
		for _, v := range violations {
			r.addNote("seed %d: %s", seed, v)
		}
	}
	r.Match = failed == 0
	r.Measured = fmt.Sprintf(
		"%d/%d seeds hold the invariant: every victim death is rolled back to a valid generation (poisoned ones rejected by CRC), both victims complete, bystander unchanged within 10%%",
		len(seeds)-failed, len(seeds))
	return r, nil
}

// E11RecoveryCampaign is the registry entry point (8 fixed seeds).
func E11RecoveryCampaign() (*Result, error) {
	return RecoveryCampaign(DefaultCampaignSeeds(8, 1))
}
