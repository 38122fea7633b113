// Package bench is the benchmark of record for the VAX virtualization
// reproduction: four workloads that drive the system only through its
// public functions, with host-time end-to-end metrics measured untraced
// and per-layer metrics from a separate traced run. cmd/vaxbench is its
// command; README.md documents the metrics and how to compare commits.
package bench

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// Options configures one workload run.
type Options struct {
	// Seed generates the workload's inputs: the same seed gives the
	// same inputs. Seed 1 is the default; seed 2 is held out for
	// checking claims.
	Seed int64
	// Duration is how long operations are started for, after set-up.
	Duration time.Duration
	// Trace records spans and layer counters and reports the per-layer
	// metrics instead of the end-to-end ones.
	Trace bool
	// Root is the repository root (EXPERIMENTS.md lives there).
	Root string
}

// Metric is one named measurement.
type Metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string // how a summary was taken, e.g. "p99 of 1480"
}

// Result is the outcome of one workload run.
type Result struct {
	// Attempted counts the operations started after set-up, Failed
	// those that returned an error or failed a correctness check.
	Attempted, Failed int
	// Errors holds the first few failure messages.
	Errors []string
	// Extra holds figures printed for people but not bounded: raw host
	// times, guest MIPS, fleet bring-up.
	Extra []Metric
	Spans []Span

	values  map[string]float64
	notes   map[string]string
	peakMem uint64 // bytes, see noteMem
}

const maxErrors = 5

func newResult() *Result {
	return &Result{values: map[string]float64{}, notes: map[string]string{}}
}

// Correct reports whether every operation passed its checks.
func (r *Result) Correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

// fail records a failed operation or check.
func (r *Result) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

var known = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = true
	}
	return m
}()

// set records a catalogue metric.
func (r *Result) set(name string, v float64) {
	if !known[name] {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	r.values[name] = v
}

// setSummary records name_p50 and name_tail from a sample set.
func (r *Result) setSummary(name string, xs []float64) {
	s := Summarize(xs)
	r.set(name+"_p50", s.P50)
	r.set(name+"_tail", s.Tail)
	r.notes[name+"_p50"] = fmt.Sprintf("n=%d", s.N)
	r.notes[name+"_tail"] = s.TailNote()
}

func (r *Result) extra(name, unit string, v float64, note string) {
	r.Extra = append(r.Extra, Metric{Name: name, Unit: unit, Value: v, Note: note})
}

// Metrics returns the catalogue metrics in catalogue order: the
// end-to-end set, or with traced the per-layer set. A layer the
// workload does not exercise reads 0.
func (r *Result) Metrics(traced bool) []Metric {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make([]Metric, len(defs))
	for i, d := range defs {
		out[i] = Metric{Name: d.name, Unit: d.unit, Value: r.values[d.name], Note: r.notes[d.name]}
	}
	return out
}

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string
	Why  string
	// Inputs describes the inputs generated from a seed.
	Inputs func(seed int64) string
	run    func(o Options, r *Result, rec *Recorder) error
}

// Workloads lists the benchmark's workloads in the order they run.
var Workloads = []Workload{
	{
		Name:   "paper_suite",
		Why:    "warm passes of every paper experiment (T1-F3, E1-E11), the reproduction user's job; E11 checkpoint and recovery is about 80% of a pass",
		Inputs: func(int64) string { return "the paper's fixed experiment configurations" },
		run:    runSuite,
	},
	{
		Name:   "vm_mix",
		Why:    "one MiniOS VM on the Section 7.3 editing+TP mix under the default VMM config: emulation traps, shadow fills, decode invalidations",
		Inputs: func(seed int64) string { return fmt.Sprint(mixInputs(seed)) },
		run:    runMix,
	},
	{
		Name:   "vm_compute_tier",
		Why:    "one VM on a pure compute loop with the superblock tier on: cpu and translation layers, the VMM is bypassed",
		Inputs: func(seed int64) string { return fmt.Sprint(computeInputs(seed)) },
		run:    runCompute,
	},
	{
		Name:   "fleet_dense_clone",
		Why:    "256-VM fleet of 2 boots and 254 COW clones on the M:N engine, run to completion and destroyed: scheduler, clone, COW breaks, destroy",
		Inputs: func(seed int64) string { return fmt.Sprint(denseInputs(seed)) },
		run:    runDense,
	},
}

// Run runs one workload. A set-up failure is returned as an error;
// failed operations and checks are counted in the Result.
func Run(name string, o Options) (*Result, error) {
	for _, w := range Workloads {
		if w.Name != name {
			continue
		}
		var rec *Recorder
		if o.Trace {
			rec = NewRecorder()
		}
		r := newResult()
		if err := w.run(o, r, rec); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		r.noteMem()
		r.set("peak_mem_mb", float64(r.peakMem)/(1<<20))
		r.Spans = rec.Spans()
		return r, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setups is how many times a run repeats its set-up; setup_s is their
// median. A run shorter than five seconds sets up once.
func setups(o Options) int {
	if o.Duration < 5*time.Second {
		return 1
	}
	return 3
}

// measureSetup runs setup setups(o) times and records the median
// normalized time as setup_s (see hostref.go). Only the first (cold)
// repetition is traced. As before each closed-loop operation, the heap
// is collected first, untimed.
func measureSetup(o Options, r *Result, rec *Recorder, setup func(t Trace) error) error {
	var secs, raw []float64
	for i := 0; i < setups(o); i++ {
		runtime.GC()
		var t Trace
		if i == 0 {
			t = rec.Root(0).Begin("setup")
		}
		t0 := time.Now()
		err := setup(t)
		s := time.Since(t0).Seconds()
		t.End()
		r.noteMem()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		raw = append(raw, s)
		secs = append(secs, normalized(s, hostRefMs()))
	}
	r.set("setup_s", median(secs))
	r.notes["setup_s"] = fmt.Sprintf("n=%d", len(secs))
	r.extra("setup_raw_s", "s", median(raw), "host time, not normalized")
	return nil
}

// closedLoop runs op back to back until o.Duration has passed (and at
// least twice). Garbage from earlier operations is collected before
// each one, untimed, so the heap each operation sees does not depend on
// when the collector last ran; the host reference runs after each one,
// also untimed, and normalizes it. In a traced run even operations
// are traced and odd ones are not, so trace.overhead_pct compares
// neighbours. It sets the end-to-end op metric and the go.* and trace.*
// layer metrics.
func closedLoop(o Options, r *Result, rec *Recorder, name string, op func(i int, t Trace) error) {
	var plain, traced, raw, refs []float64
	p0 := sampleProc()
	deadline := p0.wall.Add(o.Duration)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		runtime.GC()
		var t Trace
		if o.Trace && i%2 == 0 {
			t = rec.Root(int64(i + 1)).Begin(name)
		}
		t0 := time.Now()
		err := op(i, t)
		ms := since(t0, time.Millisecond)
		t.End()
		r.noteMem()
		r.Attempted++
		ref := hostRefMs()
		refs = append(refs, ref)
		switch {
		case err != nil:
			r.fail(fmt.Errorf("%s %d: %w", name, i, err))
		case t.On():
			traced = append(traced, normalized(ms, ref))
		default:
			plain = append(plain, normalized(ms, ref))
			raw = append(raw, ms)
		}
	}
	p1 := sampleProc()
	r.set("op_norm_p50_ms", median(plain))
	r.notes["op_norm_p50_ms"] = fmt.Sprintf("n=%d", len(plain))
	r.extra("op_p50_ms", "ms", median(raw), "host time, not normalized")
	r.extra("host_ref_ms", "ms", median(refs), fmt.Sprintf("n=%d, nominal %g", len(refs), refNominalMs))
	wall := p1.wall.Sub(p0.wall).Seconds()
	r.set("go.alloc_mb_per_s", ratio(float64(p1.alloc-p0.alloc)/(1<<20), wall))
	r.set("go.gc_cpu_fraction", ratio(p1.gcCPU-p0.gcCPU, p1.allCPU-p0.allCPU))
	if len(traced) > 0 {
		u := median(plain)
		r.set("trace.overhead_pct", ratio(median(traced)-u, u)*100)
		r.notes["trace.overhead_pct"] = fmt.Sprintf("%d traced vs %d untraced", len(traced), len(plain))
	}
}

// procSample is the process-wide counters a measured phase is
// bracketed with.
type procSample struct {
	wall          time.Time
	alloc         uint64  // cumulative heap bytes allocated
	gcCPU, allCPU float64 // runtime's CPU-seconds estimates
}

func sampleProc() procSample {
	s := procSample{wall: time.Now()}
	m := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(m)
	s.alloc = m[0].Value.Uint64()
	s.gcCPU = m[1].Value.Float64()
	s.allCPU = m[2].Value.Float64()
	return s
}

// noteMem samples the memory the Go runtime holds from the OS (mapped
// minus released) into the run's peak. It is taken after each set-up
// and each operation, before the heap is collected. The OS's resident
// peak is not used: the runtime zeroes a fresh multi-megabyte machine
// buffer in some processes and not in others, so identical runs
// differed by the buffer's whole size.
func (r *Result) noteMem() {
	m := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(m)
	r.peakMem = max(r.peakMem, m[0].Value.Uint64()-m[1].Value.Uint64())
}

// since is the time from t0 to now in unit.
func since(t0 time.Time, unit time.Duration) float64 {
	return float64(time.Since(t0)) / float64(unit)
}
