package repro

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/vmos"
	"repro/internal/workload"
)

// TestExperimentAllocParity pins the end-to-end allocation counts of
// the serial benchmark experiments. These are the numbers ci.sh's
// bench diff gates on (allocs_per_op in BENCH_*.json); asserting them
// here catches an accidental allocation on a serial path — a lazily
// grown allocator cache, a closure that escapes — at test time rather
// than at the next benchmark refresh. The parallel engine is allowed
// to allocate (worker shards, queues, pprof labels); the serial paths
// these experiments drive are not.
func TestExperimentAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	if testing.Short() {
		t.Skip("E9 runs the cost-sensitivity sweep (~60ms per run)")
	}
	// A GC pass between the warm-up and measured runs empties the
	// sync.Pool-backed allocator caches and shows up as a spurious +1 in
	// any experiment; hold GC off so the pins are deterministic.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Go maps hash with a per-map random seed, so an unlucky seed in the
	// assembler's symbol tables allocates an extra overflow bucket or
	// two. The noise is strictly additive: the minimum over a few
	// attempts is the deterministic count the pin asserts.
	minAllocs := func(want float64, f func()) float64 {
		got := testing.AllocsPerRun(1, f)
		for attempt := 0; got > want && attempt < 4; attempt++ {
			if g := testing.AllocsPerRun(1, f); g < got {
				got = g
			}
		}
		return got
	}
	// The counts dropped from the 2026-08-05 baseline (256/295/574) by
	// exactly one per VM created when the per-VM wake channel became two
	// padded atomics (M:N scheduler), then to 240/275/538 when VM
	// creation stopped formatting an audit detail with auditing off,
	// then to 217/270/493 when the shadow tables' slot and run slices
	// were sized once at creation (which more than pays for the frame
	// map every VM now carries), then to 209/260/471 by two per CPU when
	// the decode cache stopped hooking TBIA and TBIS (each hook was a
	// closure), then to these by three per shadow space when its four
	// parallel slot slices became one slice of slots.
	for _, tc := range []struct {
		id   string
		want float64
	}{
		{"E2", 197},
		{"E3", 245},
		{"E9", 444},
	} {
		spec, ok := exp.ByID(tc.id)
		if !ok {
			t.Fatalf("unknown experiment %s", tc.id)
		}
		got := minAllocs(tc.want, func() {
			if _, err := spec.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("%s allocates %.0f times per run, want exactly %.0f", tc.id, got, tc.want)
		}
	}
}

// TestE11AllocBudget pins E11's allocation in bytes. A checkpoint
// generation shares its unchanged pages with the one before it, so a
// warm run allocates about 12 MiB; encoding each VM's full image at
// every one of the run's 2161 checkpoints allocates about 171 MiB, and
// fails.
func TestE11AllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation")
	}
	if testing.Short() {
		t.Skip("E11 runs nine recovery machines")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spec, ok := exp.ByID("E11")
	if !ok {
		t.Fatal("unknown experiment E11")
	}
	run := func() {
		if _, err := spec.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the monitor-memory pool, as a benchmark pass is warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	const budget = 40 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Errorf("E11 allocates %.1f MB per run, budget %d MB", float64(got)/(1<<20), budget>>20)
	}
}

// TestSupervisorAllocParity pins the cost of *arming* the recovery
// supervisor: a healthy serial machine run with Recover enabled (but no
// faults and no checkpoint interval) must allocate exactly as many
// times as the same run with the supervisor off. The halt-loop in Run,
// the pendingRecover checks, and the checkpoint-policy gate are all on
// hot paths; this catches any of them growing an allocation.
func TestSupervisorAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(cfg core.Config) func() {
		return func() {
			im, err := vmos.Build(vmos.Config{Target: vmos.TargetVM, Processes: workload.Mix(6, 3, 8)})
			if err != nil {
				t.Fatal(err)
			}
			k := core.New(16<<20, cfg)
			if _, err := vmos.BootVM(k, im, 64); err != nil {
				t.Fatal(err)
			}
			k.Run(0)
			k.Release()
		}
	}
	// Min-of-N for the same reason as TestExperimentAllocParity: map
	// hash-seed noise is additive, the minimum is the true count.
	min4 := func(f func()) float64 {
		got := testing.AllocsPerRun(1, f)
		for attempt := 0; attempt < 3; attempt++ {
			if g := testing.AllocsPerRun(1, f); g < got {
				got = g
			}
		}
		return got
	}
	base := min4(run(core.Config{}))
	armed := min4(run(core.Config{Recover: true, RecoverBudget: 4}))
	if armed != base {
		t.Errorf("armed supervisor allocates %.0f times per run, plain machine %.0f; arming must be free", armed, base)
	}
}
