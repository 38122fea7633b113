package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Export renderers: the same data — counter snapshots from any set of
// Sources plus the flight recorder's histograms and eviction counters —
// rendered as Prometheus text exposition or JSON. Output ordering is
// deterministic (sorted) so exports diff cleanly run to run.

// Quantiles reported by every exporter and percentile table.
var exportQuantiles = []struct {
	q     float64
	label string
}{
	{0.50, "p50"},
	{0.95, "p95"},
	{0.99, "p99"},
}

// WritePrometheus renders counter snapshots and (when rec is non-nil)
// per-VM latency summaries and eviction counters in the Prometheus text
// exposition format.
func WritePrometheus(w io.Writer, snaps []Snapshot, rec *Recorder) {
	fmt.Fprintln(w, "# HELP vax_counter Monotonic simulator counters by source.")
	fmt.Fprintln(w, "# TYPE vax_counter counter")
	for _, s := range snaps {
		keys := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "vax_counter{source=%q,name=%q} %d\n", s.Name, k, s.Counters[k])
		}
	}
	if rec == nil {
		return
	}
	fmt.Fprintln(w, "# HELP vax_latency_cycles VMM service latencies in guest cycles (bucket upper bounds).")
	fmt.Fprintln(w, "# TYPE vax_latency_cycles summary")
	for _, v := range rec.VMs() {
		for l := Lat(0); l < NumLat; l++ {
			h := v.Hist(l)
			if h.Count == 0 {
				continue
			}
			for _, eq := range exportQuantiles {
				fmt.Fprintf(w, "vax_latency_cycles{vm=%q,path=%q,quantile=%q} %d\n",
					v.Label, l, fmt.Sprintf("%.2f", eq.q), h.Quantile(eq.q))
			}
			fmt.Fprintf(w, "vax_latency_cycles_sum{vm=%q,path=%q} %d\n", v.Label, l, h.Sum)
			fmt.Fprintf(w, "vax_latency_cycles_count{vm=%q,path=%q} %d\n", v.Label, l, h.Count)
		}
	}
	fmt.Fprintln(w, "# HELP vax_events_dropped_total Flight-recorder events evicted from full per-VM logs.")
	fmt.Fprintln(w, "# TYPE vax_events_dropped_total counter")
	for _, v := range rec.VMs() {
		fmt.Fprintf(w, "vax_events_dropped_total{vm=%q} %d\n", v.Label, v.Dropped())
	}
}

// jsonExport is the wire shape WriteJSON emits.
type jsonExport struct {
	Sources   []Snapshot        `json:"sources"`
	Latencies []jsonLatency     `json:"latencies,omitempty"`
	Dropped   map[string]uint64 `json:"events_dropped,omitempty"`
}

type jsonLatency struct {
	VM    string  `json:"vm"`
	Path  string  `json:"path"`
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum_cycles"`
	Mean  float64 `json:"mean_cycles"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
}

// WriteJSON renders the same export as WritePrometheus in JSON.
func WriteJSON(w io.Writer, snaps []Snapshot, rec *Recorder) error {
	out := jsonExport{Sources: snaps}
	if rec != nil {
		out.Dropped = map[string]uint64{}
		for _, v := range rec.VMs() {
			out.Dropped[v.Label] = v.Dropped()
			for l := Lat(0); l < NumLat; l++ {
				h := v.Hist(l)
				if h.Count == 0 {
					continue
				}
				out.Latencies = append(out.Latencies, jsonLatency{
					VM: v.Label, Path: l.String(),
					Count: h.Count, Sum: h.Sum, Mean: h.Mean(),
					P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// HistTable renders one percentile row per VM and latency path: the
// table behind the monitor's hist command. Quantiles are bucket upper
// bounds, so every printed figure is a guaranteed ceiling.
func HistTable(rec *Recorder) string {
	if rec == nil {
		return "recorder disabled\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %10s %12s %10s %10s %10s\n",
		"vm", "path", "count", "mean", "p50", "p95", "p99")
	rows := 0
	for _, v := range rec.VMs() {
		for l := Lat(0); l < NumLat; l++ {
			h := v.Hist(l)
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-10s %-12s %10d %12.1f %10d %10d %10d\n",
				v.Label, l, h.Count, h.Mean(),
				h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
			rows++
		}
	}
	if rows == 0 {
		b.WriteString("(no latency samples recorded)\n")
	}
	return b.String()
}

// FormatEvents renders the most recent n flight-recorder events per VM
// (all retained events when n <= 0), oldest first. Each VM's header
// counts the events its full log has evicted as "dropped".
func FormatEvents(rec *Recorder, n int) string {
	if rec == nil {
		return "recorder disabled\n"
	}
	var b strings.Builder
	for _, v := range rec.VMs() {
		evs := v.Events(n)
		fmt.Fprintf(&b, "[%s] %d event(s), %d dropped\n", v.Label, len(evs), v.Dropped())
		for _, e := range evs {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	if b.Len() == 0 {
		b.WriteString("(no VMs registered)\n")
	}
	return b.String()
}
