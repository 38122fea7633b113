package bench

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Summarize must sort
	}
	return xs
}

func TestSummarizeQuartiles(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.P25 != 2 || s.P50 != 3 || s.P75 != 4 {
		t.Fatalf("got %+v, want n=5 p25=2 p50=3 p75=4", s)
	}
	s = Summarize([]float64{1, 2, 3, 4})
	if s.P50 != 2.5 || s.P25 != 1.75 || s.P75 != 3.25 {
		t.Fatalf("even-sized interpolation: got %+v", s)
	}
}

func TestSummarizeTailNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		tailQ float64
	}{
		{0, 0},
		{10, 0},
		{37, 0},    // p75 leaves 9 above
		{38, 0.75}, // p75 leaves 10 above
		{101, 0.9}, // p90 leaves 10, p95 only 5
		{1001, 0.99},
		{1500, 0.99}, // p99.9 leaves 1
		{20000, 0.999},
	}
	for _, c := range cases {
		s := Summarize(seq(c.n))
		if s.TailQ != c.tailQ {
			t.Errorf("n=%d: tail quantile %g, want %g", c.n, s.TailQ, c.tailQ)
			continue
		}
		if c.tailQ > 0 && beyond(c.n, c.tailQ) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond(c.n, c.tailQ), c.tailQ*100)
		}
	}
}

func TestSummarizeExactSampleTail(t *testing.T) {
	// 1..1001: the exact p99 sits at position 990, i.e. value 991, and
	// resolves a 1% difference that a power-of-two bucket would hide.
	s := Summarize(seq(1001))
	if s.TailQ != 0.99 || math.Abs(s.Tail-991) > 1e-9 {
		t.Fatalf("p99 of 1..1001 = %g (q=%g), want 991", s.Tail, s.TailQ)
	}
	if s.P50 != 501 {
		t.Fatalf("median of 1..1001 = %g, want 501", s.P50)
	}
	if got := s.TailNote(); got != "p99 of 1001" {
		t.Fatalf("note %q", got)
	}
}

func TestRatioOfZeroIsZero(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Fatal("ratio")
	}
	if median(nil) != 0 || median([]float64{3, 1, 2}) != 2 {
		t.Fatal("median")
	}
}
