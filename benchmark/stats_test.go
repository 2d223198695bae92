package main

import (
	"math"
	"testing"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4): the driver's spread rule.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{0.61, 0.66, 0.6, 0.65, 0.64, 0.62, 0.63, 0.6, 0.7, 0.61}, 0.6075, 0.6525},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{240, 95}, {30, 66}, {20, 50}, {19, 0}, {100, 90}, {5000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if c.want > 0 {
			beyond := c.n - c.n*c.want/100
			if beyond < 10 {
				t.Errorf("n=%d: p%d leaves only %d samples beyond it", c.n, c.want, beyond)
			}
		}
	}
}
