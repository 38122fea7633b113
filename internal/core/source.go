package core

import (
	"fmt"

	"repro/internal/vax"
)

// trace.Source implementations: the VMM, each VM, and the merged
// parallel-run totals expose their counters through the one interface
// the trace package snapshots and exports. Counter names are part of
// the observable surface (EXPERIMENTS.md tables, Prometheus series);
// keep them stable.

// Name identifies the monitor-level counter source.
func (k *VMM) Name() string { return "vmm" }

// Counters emits the monitor-level counters.
func (k *VMM) Counters(emit func(name string, v uint64)) {
	s := k.Stats
	emit("entries", s.VMMEntries)
	emit("world_switches", s.WorldSwitches)
	emit("virtual_irqs", s.VirtualIRQs)
	emit("clock_ticks", s.ClockTicks)
	emit("deliveries", s.ReflectedTraps)
	emit("shadow_pool_hits", s.ShadowPoolHits)
	emit("shadow_pool_miss", s.ShadowPoolMisses)
	// Overcommit accounting: real pages ever carved (resident high
	// water) against the fleet's nominal footprint.
	emit("carved_pages", uint64(k.CarvedPages()))
	emit("nominal_pages", uint64(k.NominalPages()))
}

// Name returns the VM's label (configured, or "vm<ID>").
func (vm *VM) Name() string { return vm.name }

// defaultVMName labels an unnamed VM. Small fleet IDs come from a
// static table so CreateVM stays allocation-neutral in benchmarks.
var smallVMNames = [...]string{
	"vm0", "vm1", "vm2", "vm3", "vm4", "vm5", "vm6", "vm7",
	"vm8", "vm9", "vm10", "vm11", "vm12", "vm13", "vm14", "vm15",
}

func defaultVMName(id int) string {
	if id >= 0 && id < len(smallVMNames) {
		return smallVMNames[id]
	}
	return fmt.Sprintf("vm%d", id)
}

// Counters emits the VM's per-guest counters. Same confinement rules
// as Stats: read only while the VM's engine is not running.
func (vm *VM) Counters(emit func(name string, v uint64)) {
	s := vm.Stats
	emit("vm_traps", s.VMTraps)
	emit("chm", s.CHMs)
	emit("rei", s.REIs)
	emit("mtpr_ipl", s.MTPRIPL)
	emit("mtpr_other", s.MTPROther)
	emit("mfpr", s.MFPRs)
	emit("context_switches", s.ContextSwitches)
	emit("shadow_fills", s.ShadowFills)
	emit("prefetch_fills", s.PrefetchFills)
	emit("fill_batches", s.FillBatches)
	emit("batch_fills", s.BatchFills)
	emit("slow_path_allocs", s.SlowPathAllocs)
	emit("shadow_clears", s.ShadowClears)
	emit("cache_hits", s.CacheHits)
	emit("cache_misses", s.CacheMisses)
	emit("modify_faults", s.ModifyFaults)
	emit("reflected", s.ReflectedFaults)
	emit("virtual_irqs", s.VirtualIRQs)
	emit("kcalls", s.KCALLs)
	emit("mmio_emuls", s.MMIOEmuls)
	emit("waits", s.Waits)
	emit("probe_fills", s.ProbeFills)
	emit("machine_checks", s.MachineChecks)
	emit("disk_retries", s.DiskRetries)
	emit("watchdog_trips", s.WatchdogTrips)
	emit("selfcheck_repairs", s.SelfCheckRepairs)
	emit("unknown_kcalls", s.UnknownKCALLs)
	emit("checkpoints", s.Checkpoints)
	emit("recoveries", s.Recoveries)
	emit("recovery_fallbacks", s.RecoveryFallbacks)
	emit("recovery_escalations", s.RecoveryEscalations)
	emit("cow_breaks", s.COWBreaks)
	emit("shared_pages", s.SharedPages)
	emit("private_pages", s.PrivatePages)
	// Resident vs nominal: what the VM actually occupies against what
	// it is configured with. A never-cloned VM is fully resident.
	emit("resident_pages", vm.ResidentPages())
	emit("nominal_pages", uint64(vm.MemSize/vax.PageSize))
}

// Name identifies the parallel-run counter source.
func (pr ParallelRunStats) Name() string { return "parallel" }

// Counters emits the merged totals of the last parallel run.
func (pr ParallelRunStats) Counters(emit func(name string, v uint64)) {
	emit("workers", uint64(pr.Workers))
	emit("vms", uint64(pr.VMs))
	emit("steps", pr.Steps)
	emit("instructions", pr.Instrs)
	emit("cycles", pr.Cycles)
	emit("dispatches", pr.Dispatches)
	emit("min_worker_steps", pr.MinWorkerSteps)
	emit("max_worker_steps", pr.MaxWorkerSteps)
	emit("decode_hits", pr.DecodeHits)
	emit("decode_misses", pr.DecodeMisses)
	emit("decode_invalidations", pr.DecodeInvalidations)
	emit("cow_breaks", pr.CowBreaks)
	// Occupancy balance in parts per thousand: 1000 = perfectly even,
	// 0 = at least one worker never ran a step.
	emit("worker_occupancy_permille", pr.OccupancyPermille())
}
