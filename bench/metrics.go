package bench

// The metric catalogue. BENCHMARK.json lists the same names and units
// (the smoke test holds the two together). Every workload reports every
// metric of a set, so a metric of a layer the workload does not
// exercise reads 0; README.md maps each layer metric to the end-to-end
// metric and workload it should move.

import "repro/internal/trace"

type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, measured untraced. The
// two times are normalized to a nominal host speed (hostref.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_mem_mb", "MB"},
	{"op_norm_p50_ms", "ms"},
}

// experimentIDs are the exp.All IDs in paper order; each has a
// per-layer exp.<ID>_ms metric.
var experimentIDs = []string{
	"T1", "T2", "T3", "T4", "F1", "F2", "F3",
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
}

// simLatencies are the flight recorder's simulated-cycle histograms that
// some workload fills.
var simLatencies = []trace.Lat{trace.LatTrap, trace.LatShadowFill, trace.LatCowBreak}

// perLayer is reported by traced runs.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{n, unit})
		}
	}
	for _, id := range experimentIDs {
		add("ms", "exp."+id+"_ms")
	}
	add("ms", "vmos.build_ms", "vmos.boot_ms")
	add("ratio", "cpu.decode_hit_ratio")
	add("1/kinstr", "cpu.decode_invalidations_per_kinstr")
	add("ratio", "cpu.sb_coverage")
	add("count", "cpu.sb_builds")
	add("ns", "cpu.bare_ns_per_instr")
	add("ratio", "mmu.tlb_hit_ratio")
	add("1/kinstr", "mmu.tlb_misses_per_kinstr")
	add("1/kinstr", "core.vm_traps_per_kinstr")
	add("count", "core.kcalls")
	add("ratio", "core.vmm_host_share")
	add("fills/switch", "core.fills_per_switch")
	add("count", "core.batch_fills")
	add("ms", "core.run_ms")
	add("count", "core.dispatches")
	add("us", "core.clone_us_p50", "core.clone_us_tail", "core.destroy_us_p50", "core.destroy_us_tail")
	add("count", "core.cow_breaks")
	add("ratio", "core.resident_ratio")
	add("MB/s", "go.alloc_mb_per_s")
	add("ratio", "go.gc_cpu_fraction")
	add("cycles", "sim.cycles")
	add("count", "sim.instructions")
	add("ratio", "sim.vm_rel_perf")
	for _, l := range simLatencies {
		add("cycles", "sim."+l.String()+"_cycles_p50")
	}
	add("%", "trace.overhead_pct")
	return d
}()
