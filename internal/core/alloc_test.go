package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/vax"
)

// White-box tests for the page allocator: the root and every worker
// shard carve exactly what they ask for from one shared pool, so
// FreePages, PagesInUse and out-of-memory reporting stay precise
// whichever instance allocates.

// TestRootAllocStaysExact: the root takes exactly what is asked, and
// its freed runs go straight to the pool where the next allocRun finds
// them.
func TestRootAllocStaysExact(t *testing.T) {
	k := New(16<<20, Config{})
	before := k.shared.nextPage
	p, err := k.allocPages(3)
	if err != nil {
		t.Fatal(err)
	}
	if k.shared.nextPage != before+3 {
		t.Errorf("root carved %d pages, want exactly 3", k.shared.nextPage-before)
	}
	k.freeRun(p, 3)
	if len(k.shared.pageRuns[3]) != 1 {
		t.Fatalf("root freeRun did not park the run: pool has %d runs of 3",
			len(k.shared.pageRuns[3]))
	}
	hits := k.Stats.ShadowPoolHits
	got, err := k.allocRun(3)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("allocRun returned %d, want recycled run %d", got, p)
	}
	if k.Stats.ShadowPoolHits != hits+1 {
		t.Error("recycled run not counted as a pool hit")
	}
}

// TestShardAllocStaysExact: a worker shard allocates exactly as the
// root does — it carves exactly the pages asked for, and its freed run
// lands in the shared pool at once, where the root's next allocRun
// finds it — and a request beyond the free store is ErrOutOfMemory on
// either instance.
func TestShardAllocStaysExact(t *testing.T) {
	k := New(64*1024, Config{}) // 128 pages total, page 0 reserved
	s := k.newWorkerShard()
	before := k.shared.nextPage
	p, err := s.allocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.shared.nextPage - before; got != 2 {
		t.Errorf("shard carved %d pages, want exactly 2", got)
	}
	s.freeRun(p, 2)
	if got, err := k.allocRun(2); err != nil || got != p {
		t.Errorf("root allocRun = %d, %v; want the shard's freed run %d", got, err, p)
	}
	for _, v := range []*VMM{k, s} {
		if _, err := v.allocPages(1000); !errors.Is(err, ErrOutOfMemory) {
			t.Errorf("over-free-store allocation = %v, want ErrOutOfMemory", err)
		}
	}
}

// TestHaltedVMRunsRecycledAfterParallelRun: shadow-table runs released
// by VMs halting on worker shards must reach the shared pool, so the
// root's next CreateVM recycles them instead of growing physical
// memory.
func TestHaltedVMRunsRecycledAfterParallelRun(t *testing.T) {
	k := New(16<<20, Config{WaitTimeout: 2})
	var vms []*VM
	for i := 0; i < 4; i++ {
		vms = append(vms, addTestVM(t, k, "", parComputeSrc, nil))
	}
	k.RunParallel(2, 10_000_000)
	assertAllHaltedNormally(t, vms)
	if pr := k.LastParallelRun(); pr.VMs != 4 {
		t.Fatalf("parallel engine did not run: %+v", pr)
	}

	hits := k.Stats.ShadowPoolHits
	pagesBefore := k.shared.nextPage
	vm, err := k.CreateVM(VMConfig{
		Name: "recycled", MemBytes: gMemSize,
		PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if k.Stats.ShadowPoolHits == hits {
		t.Error("new VM recycled none of the halted VMs' shadow runs")
	}
	// The new VM's RAM is fresh, but its shadow tables should all come
	// from recycled runs: the bump allocator must only have grown by
	// the RAM extent.
	ramPages := uint32(gMemSize) / vax.PageSize
	if got := k.shared.nextPage - pagesBefore; got != ramPages {
		t.Errorf("CreateVM grew the bump allocator by %d pages, want %d (RAM only)",
			got, ramPages)
	}
	_ = vm
}

// TestPagesInUseLeakGate pins the measure the soak's leak gate compares
// before and after its gated epoch. Runs parked in the pool for reuse
// are not in use, so a burst that carves one more run than the warm-up
// did leaves PagesInUse at its baseline while FreePages drops; a page
// allocated after the baseline and never returned still trips it,
// whether the root or a worker shard allocated it.
func TestPagesInUseLeakGate(t *testing.T) {
	k := New(16<<20, Config{})
	s := k.newWorkerShard()
	mustRun := func(v *VMM, n uint32) uint32 {
		t.Helper()
		p, err := v.allocRun(n)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Warm-up: one 4-page run through the root, one 2-page run through
	// the shard.
	k.freeRun(mustRun(k, 4), 4)
	s.freeRun(mustRun(s, 2), 2)
	base, free := k.PagesInUse(), k.FreePages()

	// The gated burst holds two runs of each size at once: the pool has
	// one of each, so the second is carved fresh. All go back to the
	// pool.
	a, b := mustRun(k, 4), mustRun(k, 4)
	k.freeRun(a, 4)
	k.freeRun(b, 4)
	c, d := mustRun(s, 2), mustRun(s, 2)
	s.freeRun(c, 2)
	s.freeRun(d, 2)
	if k.FreePages() >= free {
		t.Fatalf("free pages %d, want below %d: the burst carved nothing", k.FreePages(), free)
	}
	if got := k.PagesInUse(); got != base {
		t.Fatalf("pages in use %d after pool growth, want baseline %d", got, base)
	}

	// A page deliberately leaked after the baseline, through each
	// instance in turn.
	for i, v := range []*VMM{k, s} {
		mustRun(v, 1)
		if got, want := k.PagesInUse(), base+uint32(i)+1; got != want {
			t.Fatalf("pages in use %d after %d leaked pages, want %d", got, i+1, want)
		}
	}
}

// TestOutOfMemoryHoldsNoPages: a VM build refused for lack of physical
// memory is ErrOutOfMemory and holds no pages afterwards — every run
// carved before the refusal goes back to the pool, so PagesInUse is
// unchanged. Each case leaves one page less free than the build needs,
// so all but its last run fit.
func TestOutOfMemoryHoldsNoPages(t *testing.T) {
	img, prog := guestImage(t, cloneComputeSrc, nil)
	cfg := VMConfig{
		MemBytes: gMemSize, Image: img, StartPC: prog.MustSymbol("start"),
		PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
	}
	// What one VM carves: its RAM, then its shadow tables.
	probe := New(1<<20, Config{})
	if _, err := probe.CreateVM(cfg); err != nil {
		t.Fatal(err)
	}
	ramPages := uint32(gMemSize) / vax.PageSize
	vmPages := probe.CarvedPages() - 1 // page 0 is reserved
	shadowPages := vmPages - ramPages

	// fill carves all but free pages of k's memory and returns the
	// resulting PagesInUse baseline.
	fill := func(k *VMM, free uint32) uint32 {
		t.Helper()
		if _, err := k.allocPagesRaw(k.FreePages() - free); err != nil {
			t.Fatal(err)
		}
		return k.PagesInUse()
	}

	t.Run("create", func(t *testing.T) {
		k := New(1<<20, Config{})
		base := fill(k, vmPages-1)
		if _, err := k.CreateVM(cfg); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("CreateVM = %v, want ErrOutOfMemory", err)
		}
		if got := k.PagesInUse(); got != base {
			t.Errorf("pages in use %d after a refused CreateVM, want %d", got, base)
		}
	})

	t.Run("image", func(t *testing.T) {
		k := New(1<<20, Config{})
		base := k.PagesInUse()
		big := cfg
		big.Image = make([]byte, gMemSize+1)
		if _, err := k.CreateVM(big); err == nil {
			t.Fatal("CreateVM loaded an image larger than the VM")
		}
		if got := k.PagesInUse(); got != base {
			t.Errorf("pages in use %d after a refused image load, want %d", got, base)
		}
	})

	t.Run("clone-dispatch", func(t *testing.T) {
		k := New(1<<20, Config{})
		src, err := k.CreateVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := k.Clone(src, "")
		if err != nil {
			t.Fatal(err)
		}
		base := fill(k, shadowPages-1)
		if k.ensureShadow(c) {
			t.Fatal("clone built shadow tables on a full monitor")
		}
		if h, msg := c.Halted(); !h || !strings.Contains(msg, "out of physical memory") {
			t.Fatalf("clone halted=%v %q, want an out-of-memory halt", h, msg)
		}
		if got := k.PagesInUse(); got != base {
			t.Errorf("pages in use %d after a refused shadow build, want %d", got, base)
		}
		if err := k.DestroyVM(c); err != nil {
			t.Fatal(err)
		}
		if got := k.PagesInUse(); got != base {
			t.Errorf("pages in use %d after destroying the clone, want %d", got, base)
		}
	})
}
