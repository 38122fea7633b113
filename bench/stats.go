package bench

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a set of samples exactly: every statistic is
// interpolated between actual sample values. trace.Hist is not used
// here because its power-of-two bucket ceilings (127, 255, 511 µs)
// cannot resolve a 10% change.
type Summary struct {
	N             int
	P25, P50, P75 float64
	// TailQ is the highest of tailQuantiles that leaves at least
	// minBeyond samples above it, and Tail the sample quantile there.
	// Both are 0 when the set is too small for any of them.
	TailQ float64
	Tail  float64
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// minBeyond is how many samples must lie above a percentile for it to
// be reported: fewer than ten makes the tail one or two outliers.
const minBeyond = 10

// Summarize computes the summary of xs (which it does not modify).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P25 = quantile(sorted, 0.25)
	s.P50 = quantile(sorted, 0.50)
	s.P75 = quantile(sorted, 0.75)
	for _, q := range tailQuantiles {
		if beyond(len(sorted), q) >= minBeyond {
			s.TailQ, s.Tail = q, quantile(sorted, q)
			break
		}
	}
	return s
}

// TailNote describes the tail as printed next to a metric, e.g.
// "p99 of 1480"; "unresolved of 12" when no percentile qualifies.
func (s Summary) TailNote() string {
	if s.TailQ == 0 {
		return fmt.Sprintf("unresolved of %d", s.N)
	}
	return fmt.Sprintf("p%g of %d", s.TailQ*100, s.N)
}

// quantile interpolates linearly between the order statistics around
// position q·(n-1) of a sorted, non-empty slice.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// beyond counts the samples of an n-sample set that lie strictly above
// the q-quantile's interpolation position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// median is Summarize(xs).P50 without the rest.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}

// ratio is a/b, or 0 when b is 0, so a layer a workload never
// exercises reads 0 instead of NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
