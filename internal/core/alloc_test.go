package core

import (
	"testing"

	"repro/internal/vax"
)

// White-box tests for the decomposed page allocator: the root stays
// exact (serial semantics, FreePages and OOM reporting unchanged),
// worker shards batch — spans from the bump allocator, run batches
// from the recycle pool — and everything a shard caches becomes
// visible to the root again at the merge.

// TestShardAllocSpanBatching: a shard's first small allocation carves
// a whole span from the global bump allocator; subsequent allocations
// are served from the span without touching shared state.
func TestShardAllocSpanBatching(t *testing.T) {
	k := New(16<<20, Config{})
	s := k.newWorkerShard()
	before := k.shared.nextPage
	p1, err := s.allocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.shared.nextPage - before; got != allocSpanPages {
		t.Errorf("shard carved %d pages globally, want a %d-page span", got, allocSpanPages)
	}
	if s.alloc.spanLeft != allocSpanPages-2 {
		t.Errorf("spanLeft = %d, want %d", s.alloc.spanLeft, allocSpanPages-2)
	}
	p2, err := s.allocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1+2 {
		t.Errorf("second allocation at %d, want span-contiguous %d", p2, p1+2)
	}
	if k.shared.nextPage != before+allocSpanPages {
		t.Error("span-served allocation touched the global allocator")
	}
}

// TestShardAllocSpanExhaustion: when the global free store is smaller
// than a span, the shard falls back to the exact request; a request
// larger than the free store is a precise out-of-memory error.
func TestShardAllocSpanExhaustion(t *testing.T) {
	k := New(64*1024, Config{}) // 128 pages total, page 0 reserved
	s := k.newWorkerShard()
	if _, err := k.allocPages(100); err != nil {
		t.Fatal(err)
	}
	before := k.shared.nextPage // 27 pages free, less than a span
	if _, err := s.allocPages(4); err != nil {
		t.Fatal(err)
	}
	if got := k.shared.nextPage - before; got != 4 {
		t.Errorf("exhaustion fallback carved %d pages, want exactly 4", got)
	}
	if _, err := s.allocPages(1000); err == nil {
		t.Error("over-free-store allocation did not report out of memory")
	}
	if _, err := k.allocPages(1000); err == nil {
		t.Error("root over-free-store allocation did not report out of memory")
	}
}

// TestRootAllocStaysExact: the root takes exactly what is asked, never
// grows a private cache (its allocation counts are part of the serial
// benchmarks' alloc-parity contract), and its freed runs go straight
// to the global pool where the next allocRun finds them.
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
	if k.alloc.spanLeft != 0 || len(k.alloc.runs) != 0 {
		t.Error("root grew a private allocator cache")
	}
	k.freeRun(p, 3)
	if len(k.shared.pageRuns[3]) != 1 {
		t.Fatalf("root freeRun kept the run local: global pool has %d runs of 3",
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
	if len(k.alloc.runs) != 0 {
		t.Error("root allocRun grew a private cache")
	}
}

// TestShardRunCacheSpillAndRefill: an overfull shard run cache spills
// half to the global pool; a different shard's allocRun then pulls a
// batch under one lock; and spillAllocCache (the merge barrier's call)
// makes every cached run visible to the root again.
func TestShardRunCacheSpillAndRefill(t *testing.T) {
	k := New(16<<20, Config{})
	s := k.newWorkerShard()
	var pages []uint32
	for i := 0; i < runCacheMax+4; i++ {
		p, err := k.allocPages(2)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	for _, p := range pages {
		s.freeRun(p, 2)
	}
	if n := len(s.alloc.runs[2]); n > runCacheMax {
		t.Errorf("shard cache holds %d runs, bound is %d", n, runCacheMax)
	}
	if len(k.shared.pageRuns[2]) == 0 {
		t.Error("overfull shard cache never spilled to the global pool")
	}

	s2 := k.newWorkerShard()
	globalBefore := len(k.shared.pageRuns[2])
	if _, err := s2.allocRun(2); err != nil {
		t.Fatal(err)
	}
	wantTake := min(globalBefore, runRefillBatch)
	if got := globalBefore - len(k.shared.pageRuns[2]); got != wantTake {
		t.Errorf("shard refill took %d runs from the pool, want %d", got, wantTake)
	}
	if got := len(s2.alloc.runs[2]); got != wantTake-1 {
		t.Errorf("shard stashed %d runs locally, want %d", got, wantTake-1)
	}

	cached := len(s.alloc.runs[2]) + len(s2.alloc.runs[2])
	global := len(k.shared.pageRuns[2])
	s.spillAllocCache()
	s2.spillAllocCache()
	if len(s.alloc.runs) != 0 || len(s2.alloc.runs) != 0 {
		t.Error("spillAllocCache left runs in the shard caches")
	}
	if got := len(k.shared.pageRuns[2]); got != global+cached {
		t.Errorf("global pool has %d runs after spill, want %d", got, global+cached)
	}
}

// TestHaltedVMRunsRecycledAfterParallelRun: shadow-table runs released
// by VMs halting on worker shards must reach the global pool by the
// merge barrier, so the root's next CreateVM recycles them instead of
// growing physical memory.
func TestHaltedVMRunsRecycledAfterParallelRun(t *testing.T) {
	k := New(16<<20, Config{Workers: 2, WaitTimeout: 2})
	var vms []*VM
	for i := 0; i < 4; i++ {
		vms = append(vms, addTestVM(t, k, "", parComputeSrc, nil))
	}
	k.Run(10_000_000)
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
// before and after its gated epoch. Runs parked for reuse — in the
// global pool, in a shard's run cache, or as a shard's span remainder —
// are not in use, so a burst that carves one more run than the warm-up
// did leaves PagesInUse at its baseline while FreePages drops; a page
// allocated after the baseline and never returned still trips it.
func TestPagesInUseLeakGate(t *testing.T) {
	k := New(16<<20, Config{})
	s := k.newWorkerShard()
	k.workerShards = append(k.workerShards, s)
	mustRun := func(v *VMM, n uint32) uint32 {
		t.Helper()
		p, err := v.allocRun(n)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Warm-up: one 4-page run through the root, one 2-page run through
	// the shard (which carves a whole span for it).
	k.freeRun(mustRun(k, 4), 4)
	s.freeRun(mustRun(s, 2), 2)
	base, free := k.PagesInUse(), k.FreePages()

	// The gated burst holds two runs of each size at once: the pool has
	// one 4-page run, so the second is carved fresh; the shard's cache
	// has one 2-page run, so the second comes from its span. All go
	// back to the pool and the shard's cache.
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

	// A page deliberately leaked after the baseline.
	mustRun(k, 1)
	if got := k.PagesInUse(); got != base+1 {
		t.Fatalf("pages in use %d after a leaked page, want %d", got, base+1)
	}
}
