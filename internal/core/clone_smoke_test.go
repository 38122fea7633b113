package core

import (
	"testing"

	"repro/internal/vax"
)

// cloneIdleSrc is the mostly-idle fleet guest for the clone smoke:
// three WAITs (riding the VMM's WAIT timeout), a marker store so
// parity has something to compare, then HALT.
const cloneIdleSrc = `
start:	movl #3, r10
loop:	wait
	sobgtr r10, loop
	movl #0x1D1E, @#0x80006000
	halt
`

// TestCloneSmokeParity is the ci.sh clone smoke: a 256-VM fleet brought
// up by cloning two booted templates must actually share pages before
// it runs, run to completion, and produce per-VM output identical to
// the same fleet booted VM-by-VM from images. The clone-backed monitor
// is overcommitted (48 KB backing per nominal 64 KB VM), so completion
// also exercises the COW break path under overcommit.
func TestCloneSmokeParity(t *testing.T) {
	const (
		fleet   = 256
		idlers  = fleet - fleet/32 // one compute guest per 32
		workers = 8
	)
	computeImg, computeProg := guestImage(t, cloneComputeSrc, nil)
	idleImg, idleProg := guestImage(t, cloneIdleSrc, nil)
	type outcome struct {
		val uint32
		msg string
	}
	boot := func(k *VMM, img []byte, startPC uint32) *VM {
		t.Helper()
		vm, err := k.CreateVM(VMConfig{
			MemBytes: gMemSize, Image: img, LoadAt: 0, StartPC: startPC,
			PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
		})
		if err != nil {
			t.Fatal(err)
		}
		vm.SPs[vax.Kernel] = gKSP
		vm.ISP = gISP
		return vm
	}
	run := func(cloneBacked bool) [fleet]outcome {
		t.Helper()
		memBytes := uint32(fleet)*(128<<10) + (1 << 20)
		if cloneBacked {
			memBytes = uint32(fleet)*(48<<10) + (1 << 20)
		}
		k := New(memBytes, Config{WaitTimeout: 2})
		var vms [fleet]*VM
		if cloneBacked {
			idleT := boot(k, idleImg, idleProg.MustSymbol("start"))
			computeT := boot(k, computeImg, computeProg.MustSymbol("start"))
			vms[0], vms[idlers] = idleT, computeT
			for i := 1; i < fleet; i++ {
				if i == idlers {
					continue
				}
				src := computeT
				if i < idlers {
					src = idleT
				}
				vm, err := k.Clone(src, "")
				if err != nil {
					t.Fatal(err)
				}
				vms[i] = vm
			}
			var shared uint64
			for _, vm := range vms {
				shared += vm.Stats.SharedPages
			}
			if shared == 0 {
				t.Fatal("clone fleet shares no pages before running")
			}
		} else {
			for i := range vms {
				img, start := computeImg, computeProg.MustSymbol("start")
				if i < idlers {
					img, start = idleImg, idleProg.MustSymbol("start")
				}
				vms[i] = boot(k, img, start)
			}
		}
		// Stop once on the way, while the fleet still holds its shadow
		// tables, to check their spans.
		k.RunParallel(workers, 2000)
		checkShadowSpans(t, k)
		checkSchedLists(t, k)
		k.RunParallel(workers, 0)
		checkSchedLists(t, k)
		var out [fleet]outcome
		for i, vm := range vms {
			halted, msg := vm.Halted()
			if !halted {
				t.Fatalf("fleet(clone=%v): vm index %d did not halt", cloneBacked, i)
			}
			out[i] = outcome{val: guestLong(t, vm, 0x6000), msg: msg}
		}
		return out
	}
	booted := run(false)
	cloned := run(true)
	for i := range booted {
		if booted[i] != cloned[i] {
			t.Errorf("vm index %d diverges: booted %+v, cloned %+v", i, booted[i], cloned[i])
		}
	}
}
