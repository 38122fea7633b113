package core

import (
	"fmt"
	"testing"

	"repro/internal/trace"
	"repro/internal/vax"
)

// Flight-recorder integration. The serial engine is deterministic, so
// two runs of the same workload record identical event streams — the
// drop-accounting test leans on that to check the counter exactly.

// recordedMixedRun runs the standard mixed fleet with a recorder of
// the given log capacity and returns the recorder plus the total
// events retained across VMs.
func recordedMixedRun(t *testing.T, logCap int) (*trace.Recorder, int) {
	t.Helper()
	rec := trace.NewRecorder(logCap)
	k, vms := mixedFleet(t, Config{WaitTimeout: 2}, WithRecorder(rec))
	k.Run(10_000_000)
	assertAllHaltedNormally(t, vms)
	total := 0
	for _, v := range rec.VMs() {
		total += len(v.Events(0))
	}
	return rec, total
}

// TestRecorderParallelAllShards runs the mixed fleet on the parallel
// engine with the recorder on: every shard's VM must contribute
// events, the logs must evict nothing at this capacity, and the trap
// histograms must have samples. Run under -race this also proves the
// single-writer/merge-barrier contract.
func TestRecorderParallelAllShards(t *testing.T) {
	rec := trace.NewRecorder(1 << 16)
	k, vms := mixedFleet(t, Config{WaitTimeout: 2}, WithRecorder(rec))
	k.RunParallel(4, 10_000_000)
	assertAllHaltedNormally(t, vms)
	if rec.Dropped() != 0 {
		t.Errorf("dropped %d events with %d-event logs", rec.Dropped(), 1<<16)
	}
	vrs := rec.VMs()
	if len(vrs) != len(vms) {
		t.Fatalf("recorder has %d VMs, fleet has %d", len(vrs), len(vms))
	}
	for _, v := range vrs {
		evs := v.Events(0)
		if len(evs) == 0 {
			t.Errorf("%s recorded no events", v.Label)
			continue
		}
		sawTrap := false
		for _, e := range evs {
			if int(e.VM) != v.ID {
				t.Errorf("%s holds an event for vm%d", v.Label, e.VM)
			}
			if e.Kind == trace.EvVMTrap {
				sawTrap = true
			}
		}
		// Every guest in the fleet ends with HALT, which arrives via a
		// VM-emulation trap.
		if !sawTrap {
			t.Errorf("%s has no vm-trap event", v.Label)
		}
		if v.Hist(trace.LatTrap).Count == 0 {
			t.Errorf("%s has no trap latency samples", v.Label)
		}
	}
}

// TestRecorderDropCounterExact forces eviction with a tiny log and
// checks it against a lossless run of the identical serial workload:
// retained + dropped must equal the lossless total, and what a 4-event
// log retains must be exactly the lossless run's newest 4 events.
func TestRecorderDropCounterExact(t *testing.T) {
	big, total := recordedMixedRun(t, 1<<16)
	if d := big.Dropped(); d != 0 {
		t.Fatalf("reference run dropped %d events", d)
	}
	if total == 0 {
		t.Fatal("reference run recorded nothing")
	}
	small, _ := recordedMixedRun(t, 4)
	var retained, dropped int
	bigVMs := big.VMs()
	for i, v := range small.VMs() {
		evs := v.Events(0)
		retained += len(evs)
		dropped += int(v.Dropped())
		want := bigVMs[i].Events(len(evs))
		for j := range evs {
			if evs[j] != want[j] {
				t.Errorf("%s retained %v, want the newest %v", v.Label, evs, want)
				break
			}
		}
	}
	if dropped == 0 {
		t.Fatal("4-event logs did not overflow")
	}
	if retained+dropped != total {
		t.Errorf("retained %d + dropped %d != lossless total %d", retained, dropped, total)
	}
}

// TestEventLogRetentionBothEngines: a full log keeps its VM's newest
// events on either engine, so every VM's log ends with its own halt
// and the audit view holds every VM's halt, in (cycle, VM) order.
func TestEventLogRetentionBothEngines(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rec := trace.NewRecorder(64)
			k, vms := mixedFleet(t, Config{WaitTimeout: 2}, WithRecorder(rec))
			if workers > 1 {
				k.RunParallel(workers, 10_000_000)
			} else {
				k.Run(10_000_000)
			}
			assertAllHaltedNormally(t, vms)
			if rec.Dropped() == 0 {
				t.Fatal("no log filled: the run exercised no eviction")
			}
			for _, vm := range vms {
				evs := vm.rec.Events(0)
				if len(evs) == 0 {
					t.Fatalf("%s retained no events", vm.Name())
				}
				if e := evs[len(evs)-1]; e.Kind != trace.EvVMHalted || e.Cycle != vm.HaltCycles() || int(e.VM) != vm.ID {
					t.Errorf("%s newest event %v, want its vm-halted at %d", vm.Name(), e, vm.HaltCycles())
				}
			}
			halted := map[int32]bool{}
			trail := rec.Audit()
			for i, e := range trail {
				if i > 0 && auditBefore(e, trail[i-1]) {
					t.Fatalf("audit view out of order at %d: %v after %v", i, e, trail[i-1])
				}
				if e.Kind == trace.EvVMHalted {
					halted[e.VM] = true
				}
			}
			for _, vm := range vms {
				if !halted[int32(vm.ID)] {
					t.Errorf("audit view lacks the halt of %s", vm.Name())
				}
			}
		})
	}
}

// TestDestroyReleasesEventLog: a destroyed VM's log and histograms
// leave the recorder with it, so create/halt/destroy churn leaves the
// recorder holding exactly the live VMs.
func TestDestroyReleasesEventLog(t *testing.T) {
	k, _, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	rec := k.EnableRecorder(64)
	for i := 0; i < 20; i++ {
		vm, err := k.CreateVM(VMConfig{MemBytes: gMemSize})
		if err != nil {
			t.Fatal(err)
		}
		k.HaltVM(vm, "churn")
		if err := k.DestroyVM(vm); err != nil {
			t.Fatal(err)
		}
	}
	if got, live := len(rec.VMs()), len(k.VMs()); got != live {
		t.Errorf("recorder holds %d VMs after churn, monitor has %d live", got, live)
	}
}

// TestDisabledRecorderNoAllocs proves the disabled-recorder hot paths
// stay allocation-free: the shadow-fill and emulation-trap slow paths
// must not allocate whether the recorder is nil or attached.
func TestRecorderHotPathNoAllocs(t *testing.T) {
	run := func(rec *trace.Recorder) (fill, chm float64) {
		k, vm, _ := bootVM(t, Config{}, "start:\thalt\nchmh:\thalt\n",
			map[vax.Vector]string{vax.CHMVector(vax.Kernel): "chmh"}, WithRecorder(rec))
		setupP0(t, vm, 0x5F0, 8, 40, true)
		fill = testing.AllocsPerRun(200, func() {
			if gf := k.fillShadow(vm, 0, false); gf != nil {
				t.Fatalf("fill faulted: %+v", gf)
			}
		})
		info := &vax.VMTrapInfo{Opcode: vax.OpCHMK,
			Operands: []uint32{0, uint32(vax.Kernel)},
			GuestPSL: vax.PSL(0).WithCur(vax.User), NextPC: k.CPU.PC()}
		chm = testing.AllocsPerRun(200, func() {
			vm.SPs[vax.Kernel] = gKSP
			k.emulateCHM(vm, info)
			if h, msg := vm.Halted(); h {
				t.Fatalf("VM halted in CHM: %s", msg)
			}
		})
		return fill, chm
	}
	if fill, chm := run(nil); fill != 0 || chm != 0 {
		t.Errorf("recorder off: allocs per op fill %.1f chm %.1f, want 0/0", fill, chm)
	}
	if fill, chm := run(trace.NewRecorder(1 << 12)); fill != 0 || chm != 0 {
		t.Errorf("recorder on: allocs per op fill %.1f chm %.1f, want 0/0", fill, chm)
	}
}
