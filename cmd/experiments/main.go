// Command experiments regenerates every table and figure of the paper
// and every quantitative claim of its evaluation, printing paper-versus-
// measured comparisons.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run E4    # run one experiment
//	experiments -list      # list experiment IDs
//	experiments -md        # emit Markdown (the body of EXPERIMENTS.md)
//	experiments -cpuprofile cpu.pprof -run E6   # profile the hot path
//	experiments -faults -seeds 16 -seedbase 100 # fault campaign only
//	experiments -recover -seeds 8               # recovery campaign only
//	experiments -parallel -vms 1,2,4,8          # multi-VM engine scaling
//	experiments -density -vms 64,256,1024       # mostly-idle fleet density
//	experiments -clone -vms 64,256,1024         # COW-clone fleet bring-up vs full boots
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/exp"
	"repro/internal/monitor"
)

func main() {
	os.Exit(run())
}

// run carries the real main so deferred profile writers execute before
// the process exits (os.Exit in main would skip them).
func run() int {
	runID := flag.String("run", "", "run a single experiment by ID (e.g. T1, F2, E4)")
	list := flag.Bool("list", false, "list experiments")
	md := flag.Bool("md", false, "emit Markdown")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	faults := flag.Bool("faults", false, "run only the fault-injection campaign (E10) with -seeds/-seedbase")
	recoverFlag := flag.Bool("recover", false, "run only the recovery campaign (E11) with -seeds/-seedbase")
	seeds := flag.Int("seeds", 8, "number of campaign seeds (with -faults)")
	seedbase := flag.Int64("seedbase", 1, "first campaign seed (with -faults)")
	parallel := flag.Bool("parallel", false, "measure the parallel multi-VM engine against the serial engine (wall-clock, not deterministic)")
	density := flag.Bool("density", false, "measure mostly-idle fleet density on a small worker pool (wall-clock, not deterministic)")
	clone := flag.Bool("clone", false, "measure COW-clone fleet bring-up against full boots (wall-clock, not deterministic)")
	vmsFlag := flag.String("vms", "", "comma-separated fleet sizes (with -parallel, -density or -clone)")
	workersFlag := flag.Int("workers", 0, "worker goroutines for the parallel engine; 0 = one per VM with -parallel, 8 with -density/-clone")
	traceCap := flag.Int("trace", exp.RecorderCap,
		"flight-recorder events kept per VM; 0 disables tracing (also VAX_TRACE)")
	translate := flag.Bool("translate", exp.Translation,
		"enable the hot-trace superblock translation tier (also VAX_TRANSLATE)")
	soak := flag.Bool("soak", false, "run the fleet-API soak: concurrent HTTP-driven VM lifecycles with leak and latency gates")
	lifecycles := flag.Int("lifecycles", 2000, "total VM lifecycles (with -soak)")
	clients := flag.Int("clients", 8, "concurrent API clients (with -soak)")
	tenants := flag.Int("tenants", 4, "tenants the lifecycles spread across (with -soak)")
	flag.Parse()
	exp.RecorderCap = *traceCap
	exp.Translation = *translate

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, s := range exp.All() {
			fmt.Printf("%-4s %s\n", s.ID, s.Title)
		}
		return 0
	}

	if *soak {
		rep, err := monitor.Soak(monitor.SoakOptions{
			Lifecycles: *lifecycles,
			Clients:    *clients,
			Tenants:    *tenants,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "soak: %v\n", err)
			return 2
		}
		fmt.Println(rep)
		if rep.Errors > 0 || rep.Leaked() {
			fmt.Fprintln(os.Stderr, "soak failed: lifecycle errors or leaked VMs/pages/event logs")
			return 1
		}
		return 0
	}

	if *parallel || *density || *clone {
		fleets, err := parseFleets(*vmsFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-vms: %v\n", err)
			return 2
		}
		var r *exp.Result
		switch {
		case *clone:
			r, err = exp.CloneDensity(fleets, *workersFlag)
		case *density:
			r, err = exp.ParallelDensity(fleets, *workersFlag)
		default:
			r, err = exp.ParallelScaling(fleets, *workersFlag)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "parallel scaling: %v\n", err)
			return 2
		}
		if *md {
			printMarkdown(r)
		} else {
			fmt.Println(r.Format())
		}
		return 0
	}

	if *faults || *recoverFlag {
		name, campaign := "fault campaign", exp.FaultCampaign
		if *recoverFlag {
			name, campaign = "recovery campaign", exp.RecoveryCampaign
		}
		r, err := campaign(exp.DefaultCampaignSeeds(*seeds, *seedbase))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 2
		}
		if *md {
			printMarkdown(r)
		} else {
			fmt.Println(r.Format())
		}
		if !r.Match {
			fmt.Fprintln(os.Stderr, name+" failed")
			return 1
		}
		return 0
	}

	specs := exp.All()
	if *runID != "" {
		s, ok := exp.ByID(*runID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *runID)
			return 2
		}
		specs = []exp.Spec{s}
	}

	failed := 0
	for _, s := range specs {
		r, err := s.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.ID, err)
			failed++
			continue
		}
		if *md {
			printMarkdown(r)
		} else {
			fmt.Println(r.Format())
		}
		if r.PaperClaim != "" && !r.Match {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}

// parseFleets parses the -vms list ("1,2,4,8") into fleet sizes.
func parseFleets(s string) ([]int, error) {
	var fleets []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(part, "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("bad fleet size %q", part)
		}
		fleets = append(fleets, n)
	}
	return fleets, nil
}

func printMarkdown(r *exp.Result) {
	fmt.Printf("## %s — %s\n\n", r.ID, r.Title)
	if len(r.Headers) > 0 {
		fmt.Printf("| %s |\n", strings.Join(r.Headers, " | "))
		sep := make([]string, len(r.Headers))
		for i := range sep {
			sep[i] = "---"
		}
		fmt.Printf("| %s |\n", strings.Join(sep, " | "))
		for _, row := range r.Rows {
			fmt.Printf("| %s |\n", strings.Join(row, " | "))
		}
		fmt.Println()
	}
	for _, n := range r.Notes {
		fmt.Printf("- _%s_\n", n)
	}
	if r.PaperClaim != "" {
		status := "**holds**"
		if !r.Match {
			status = "**does not hold**"
		}
		fmt.Printf("\n- paper: %s\n- measured: %s — shape %s\n", r.PaperClaim, r.Measured, status)
	}
	fmt.Println()
}
