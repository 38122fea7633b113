// Command vaxbench runs the benchmark of record (package bench).
//
//	vaxbench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-root DIR] [-spans-dir DIR]
//
// With -workload it runs that workload and prints each metric as
// "name value unit", then, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics,
// or with -trace 1 the per-layer ones. Without -workload it runs every
// workload, one at a time, each in its own child process so peak RSS is
// per workload. It exits non-zero if set-up fails or any check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all, each in a child process)")
	seed := flag.Int64("seed", 1, "input seed (2 is held out for checking claims)")
	seconds := flag.Int("seconds", 20, "measured seconds per workload, after set-up")
	traced := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	root := flag.String("root", ".", "repository root (holds EXPERIMENTS.md)")
	spansDir := flag.String("spans-dir", "", "with -trace 1, write <workload>.spans.json here")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "vaxbench: -trace takes 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "vaxbench: -seconds must be at least 1")
		os.Exit(2)
	}
	if *workload == "" {
		os.Exit(runAll())
	}
	o := bench.Options{Seed: *seed, Duration: time.Duration(*seconds) * time.Second, Trace: *traced == 1, Root: *root}
	os.Exit(runOne(*workload, o, *spansDir))
}

// runAll re-runs this command once per workload with the same flags.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxbench:", err)
		return 1
	}
	status := 0
	for _, w := range bench.Workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.Name}, os.Args[1:]...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		fmt.Printf("# workload %s: %s\n", w.Name, w.Why)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "vaxbench: %s: %v\n", w.Name, err)
			status = 1
		}
	}
	return status
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func runOne(name string, o bench.Options, spansDir string) int {
	res, err := bench.Run(name, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxbench:", err)
		return 1
	}
	out := jsonResult{Correct: res.Correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]jsonMetric{}}
	show := func(m bench.Metric) {
		line := m.Name + " " + strconv.FormatFloat(m.Value, 'g', -1, 64) + " " + m.Unit
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		fmt.Println(line)
	}
	for _, m := range res.Metrics(o.Trace) {
		show(m)
		out.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	if !o.Trace {
		for _, m := range res.Extra {
			show(m)
		}
		show(bench.Metric{Name: "failed_ratio", Unit: "ratio", Value: float64(res.Failed) / float64(res.Attempted),
			Note: fmt.Sprintf("%d of %d", res.Failed, res.Attempted)})
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	status := 0
	if o.Trace && spansDir != "" {
		if err := writeSpans(spansDir, name, res.Spans); err != nil {
			fmt.Fprintln(os.Stderr, "vaxbench:", err)
			status = 1
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaxbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct() {
		return 1
	}
	return status
}

func writeSpans(dir, name string, spans []bench.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return bench.WriteSpans(filepath.Join(dir, name+".spans.json"), spans)
}
