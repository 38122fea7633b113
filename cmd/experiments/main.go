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
	traceCap := flag.Int("trace", exp.RecorderCap,
		"flight-recorder events kept per VM; 0 disables tracing (also VAX_TRACE)")
	soak := flag.Bool("soak", false, "run the fleet-API soak: concurrent HTTP-driven VM lifecycles with leak and latency gates")
	lifecycles := flag.Int("lifecycles", 2000, "total VM lifecycles (with -soak)")
	clients := flag.Int("clients", 8, "concurrent API clients (with -soak)")
	tenants := flag.Int("tenants", 4, "tenants the lifecycles spread across (with -soak)")
	flag.Parse()
	exp.RecorderCap = *traceCap

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
