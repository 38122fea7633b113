package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
)

// paper_suite: warm passes of exp.All(). Its inputs are the paper's
// fixed configurations, so the seed changes nothing. Checks: every
// shape holds, every Measured string appears verbatim in
// EXPERIMENTS.md, and every pass renders the same output as the first.

func runSuite(o Options, r *Result, rec *Recorder) error {
	var documented, reference string
	err := measureSetup(o, r, rec, func(t Trace) error {
		b, err := os.ReadFile(filepath.Join(o.Root, "EXPERIMENTS.md"))
		if err != nil {
			return err
		}
		documented = string(b)
		// The first pass warms the image and memory caches and is the
		// rendering every timed pass must reproduce.
		reference, err = suitePass(t, documented)
		return err
	})
	if err != nil {
		return err
	}
	closedLoop(o, r, rec, "pass", func(_ int, t Trace) error {
		out, err := suitePass(t, documented)
		if err == nil && out != reference {
			err = fmt.Errorf("rendered output differs from the first pass")
		}
		return err
	})
	if o.Trace {
		spans := rec.Spans()
		for _, id := range experimentIDs {
			r.set("exp."+id+"_ms", median(durations(spans, "exp."+id, time.Millisecond)))
		}
	}
	return nil
}

// suitePass runs every experiment once and returns the concatenated
// rendering, checking each result against the paper and the document.
func suitePass(t Trace, documented string) (string, error) {
	var out strings.Builder
	for _, spec := range exp.All() {
		s := t.Begin("exp." + spec.ID)
		res, err := spec.Run()
		s.End()
		if err != nil {
			return "", fmt.Errorf("%s: %w", spec.ID, err)
		}
		if res.PaperClaim != "" && !res.Match {
			return "", fmt.Errorf("%s: shape does not hold: %s", spec.ID, res.Measured)
		}
		if res.Measured != "" && !strings.Contains(documented, "measured: "+res.Measured+" — ") {
			return "", fmt.Errorf("%s: measured %q is not in EXPERIMENTS.md", spec.ID, res.Measured)
		}
		out.WriteString(res.Format())
	}
	return out.String(), nil
}
