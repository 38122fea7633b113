//go:build !race

package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/vax"
)

// TestCloneAllocParity pins the allocation counts of the cloning fast
// paths. Clone itself is the microsecond-scale fleet bring-up primitive
// (a handful of fixed allocations: frame map, gauge masks, the VM);
// cowBreak is the steady-state
// hot path and must not allocate at all — the page copy reuses carved
// memory and the alias sweep walks windows over the shadow tables'
// spans, straight into the backing array.
// Exact pins only hold without race instrumentation, matching the
// raceEnabled guard the root-package parity tests use.
func TestCloneAllocParity(t *testing.T) {
	// GC between runs would spill the allocator caches and perturb the
	// counts; hold it off for the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	k, src, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	// First clone materializes src.frames and pays the shadow demotion;
	// the steady state starts at the second.
	if _, err := k.Clone(src, "warm"); err != nil {
		t.Fatal(err)
	}
	clone := testing.AllocsPerRun(10, func() {
		if _, err := k.Clone(src, "c"); err != nil {
			t.Fatal(err)
		}
	})
	// Frame map, two gauge masks, the VM struct and the disk clone. The
	// VM table append is amortized, the audit detail is formatted only
	// when auditing is on, and the shadow space is deliberately absent:
	// its construction is deferred to the clone's first dispatch.
	// Fixed-size work: the count must not drift.
	const wantClone = 5
	if clone != wantClone {
		t.Errorf("Clone allocates %.0f times, want exactly %d", clone, wantClone)
	}

	c, err := k.Clone(src, "breaker")
	if err != nil {
		t.Fatal(err)
	}
	pfn := uint32(1)
	breaks := testing.AllocsPerRun(8, func() {
		if !c.writePhys(pfn*vax.PageSize, 0x5EED) {
			t.Fatal("COW break failed")
		}
		pfn++
	})
	if breaks != 0 {
		t.Errorf("cowBreak allocates %.0f times per break, want 0", breaks)
	}
}
