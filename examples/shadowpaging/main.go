// Shadow paging demo: watch the VMM's shadow page tables at work.
// A MiniOS guest with demand-paged processes runs under three VMM
// configurations — on-demand fills, the multi-process shadow cache of
// Section 7.2, and the rejected prefetching experiment of Section 4.3.1
// — and the run statistics show why the paper made the choices it made.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

func run(name string, cfg repro.Config) (fills, prefetched, cycles uint64) {
	im, err := repro.BuildOS(repro.OSConfig{
		Target: repro.TargetVM,
		Processes: []repro.Process{
			workload.PageStress(8, true), // demand paging on
			workload.PageStress(8, false),
			workload.PageStress(8, false),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	k := repro.NewVMM(16<<20, cfg)
	vm, err := repro.BootVM(k, im, 16)
	if err != nil {
		log.Fatal(err)
	}
	k.Run(400_000_000)
	if h, msg := vm.Halted(); !h || msg != "HALT executed in VM kernel mode" {
		log.Fatalf("%s: guest died: %s", name, msg)
	}
	s := vm.Stats
	fmt.Printf("%-28s fills=%4d prefetched=%4d clears=%3d cache=%d/%d modify-faults=%d cycles=%d\n",
		name, s.ShadowFills, s.PrefetchFills, s.ShadowClears,
		s.CacheHits, s.CacheHits+s.CacheMisses, s.ModifyFaults, k.CPU.Cycles)
	return s.ShadowFills, s.PrefetchFills, k.CPU.Cycles
}

func main() {
	fmt.Println("Three processes touching 16 pages each, 8 rounds, yielding between rounds.")
	fmt.Println("The VMM's shadow tables start as null PTEs and fill on demand (Section 4.3.1).")
	fmt.Println()
	fills, _, cycles := run("on-demand, no cache", repro.Config{ShadowCacheSlots: 1})
	cacheFills, _, cacheCycles := run("multi-process cache (x4)", repro.Config{ShadowCacheSlots: 4})
	pfFills, prefetched, pfCycles := run("prefetch groups of 8", repro.Config{ShadowCacheSlots: 1, PrefetchGroup: 8})
	fmt.Println()
	fmt.Printf("the cache keeps each process's table across switches: %d%% fewer fills (Section 7.2's\n",
		100-100*cacheFills/fills)
	fmt.Printf("~80%%) in %d%% of the on-demand cycles; prefetching saves %d demand fills by making %d\n",
		100*cacheCycles/cycles, fills-pfFills, prefetched)
	fmt.Printf("speculative ones and runs in %d%% of the on-demand cycles: little gain (Section 4.3.1).\n",
		100*pfCycles/cycles)
}
