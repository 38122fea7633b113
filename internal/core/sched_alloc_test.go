//go:build !race

package core

import "testing"

// TestWaitChurnNoAllocs: WAIT and wake on a warmed 64-VM monitor, with
// every other VM keeping an uptime cell, allocate nothing per Run: the
// lists the tick and the world switch walk keep their backing arrays.
func TestWaitChurnNoAllocs(t *testing.T) {
	k := New(32<<20, Config{WaitTimeout: 2})
	for i := 0; i < 64; i++ {
		src := schedWaitSrc
		if i%2 == 1 {
			src = schedUptimeWaitSrc
		}
		vm := addTestVM(t, k, "", src, nil)
		vm.regs[10] = 1 << 30
	}
	k.Run(200_000)
	waits := func() (n uint64) {
		for _, vm := range k.VMs() {
			n += vm.Stats.Waits
		}
		return n
	}
	before := waits()
	if allocs := testing.AllocsPerRun(5, func() { k.Run(50_000) }); allocs != 0 {
		t.Errorf("Run allocates %.1f times per call, want 0", allocs)
	}
	if waits() == before {
		t.Error("no VM WAITed during the measured runs: the test exercised nothing")
	}
	checkSchedLists(t, k)
}
