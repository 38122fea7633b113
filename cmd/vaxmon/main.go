// Command vaxmon is an interactive monitor (debugger) for the simulated
// VAX: it boots MiniOS — bare or inside a VM — and drops into a command
// loop with stepping, breakpoints, disassembly and memory inspection.
// In -vm mode it also carries the fleet control plane: lifecycle
// commands on the REPL, and the same commands over HTTP with -http.
//
// Usage:
//
//	vaxmon                  # MiniOS on a bare standard VAX
//	vaxmon -vm              # MiniOS in a virtual machine under the VMM
//	vaxmon -vm -trace 8192  # keep each VM's newest 8192 events
//	vaxmon -vm -http :9110  # serve the fleet API, /metrics, /metrics.json
//	vaxmon -vm -http :9110 -serve   # and drive the fleet in the background
//	vaxmon -workload tp
//
// Try: help, dis, step 20, break chmk_h, continue, regs, stat, trace,
// hist, create, clone 1, snapshot 1, fleet.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fleet"
	"repro/internal/monitor"
	"repro/internal/trace"
	"repro/internal/vmos"
	"repro/internal/workload"
)

func main() {
	inVM := flag.Bool("vm", false, "run MiniOS inside a virtual machine")
	wl := flag.String("workload", "mix", "workload: mix, compute, syscall, tp, paging")
	traceCap := flag.Int("trace", 4096,
		"flight-recorder events kept per VM in -vm mode; 0 disables tracing")
	httpAddr := flag.String("http", "",
		"serve the fleet API (/v1), Prometheus (/metrics) and JSON (/metrics.json) on this address")
	serve := flag.Bool("serve", false,
		"drive the fleet continuously in the background (for API-driven use)")
	flag.Parse()

	var procs []vmos.Process
	switch *wl {
	case "mix":
		procs = workload.Mix(5, 3, 8)
	case "compute":
		procs = []vmos.Process{workload.Compute(1000)}
	case "syscall":
		procs = []vmos.Process{workload.Syscall(100)}
	case "tp":
		procs = []vmos.Process{workload.TP(5, 8)}
	case "paging":
		procs = []vmos.Process{workload.PageStress(5, true)}
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(2)
	}

	target := vmos.TargetBare
	if *inVM {
		target = vmos.TargetVM
	}
	im, err := vmos.Build(vmos.Config{Target: target, Processes: procs})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var mon *monitor.Monitor
	if *inVM {
		var opts []core.Option
		if *traceCap > 0 {
			opts = append(opts, core.WithRecorder(trace.NewRecorder(*traceCap)))
		}
		k := core.New(16<<20, core.Config{}, opts...)
		if _, err := vmos.BootVM(k, im, 16); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		k.Run(1) // enter the VM so PC/PSL show guest state
		mon = monitor.New(k.CPU)
		mon.VMM = k
		mon.Fleet = fleet.NewManager(k, fleet.Config{})
	} else {
		ma, err := vmos.BootBare(im, cpu.StandardVAX, 16)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mon = monitor.New(ma.CPU)
	}
	mon.Symbols = im.Kernel.Symbols

	// mu serializes the REPL against the HTTP handlers and the fleet
	// drive loop: the machine is single-threaded, so an API call must
	// never observe (or race with) a step in progress.
	var mu sync.Mutex
	if *httpAddr != "" {
		handler := monitor.APIHandler(mon, &mu)
		go func() {
			if err := http.ListenAndServe(*httpAddr, handler); err != nil {
				fmt.Fprintln(os.Stderr, "http:", err)
			}
		}()
		fmt.Printf("fleet API on http://%s/v1, metrics on /metrics and /metrics.json\n", *httpAddr)
	}
	if *serve && mon.Fleet != nil {
		mon.Fleet.Start(&mu)
		defer mon.Fleet.Stop()
	}

	fmt.Printf("MiniOS monitor — %s, %d process(es). Type help.\n", target, len(procs))
	fmt.Println(must(mon, "dis", &mu))
	in := bufio.NewScanner(os.Stdin)
	fmt.Print("vax> ")
	for in.Scan() {
		mu.Lock()
		out, quit := mon.Execute(in.Text())
		mu.Unlock()
		if quit {
			return
		}
		if out != "" {
			fmt.Println(out)
		}
		fmt.Print("vax> ")
	}
}

func must(m *monitor.Monitor, cmd string, mu *sync.Mutex) string {
	mu.Lock()
	defer mu.Unlock()
	out, _ := m.Execute(cmd)
	return out
}
