package main

import (
	"math"
	"sort"
)

// sample is a set of timings, one per operation, kept so the report
// can give a median, quartiles, a tail and the sample count.
type sample []float64

func (s sample) sorted() []float64 {
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	return xs
}

// median is the middle value (the mean of the two middle values for
// an even count), 0 for an empty sample.
func (s sample) median() float64 {
	xs := s.sorted()
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// rank returns the value at 1-based rank r of the sorted sample.
func (s sample) rank(r int) float64 {
	xs := s.sorted()
	if len(xs) == 0 {
		return 0
	}
	return xs[min(max(r, 1), len(xs))-1]
}

// quantile is the nearest-rank q-quantile.
func (s sample) quantile(q float64) float64 {
	return s.rank(int(math.Ceil(q * float64(len(s)))))
}

// tailRank is the 1-based rank the tail metric reports for n samples:
// the highest percentile that still has at least ten samples beyond
// it, capped at p99 and never below the (upper) median. A p99 from
// fewer than 1000 samples would rest on fewer than ten observations.
func tailRank(n int) int {
	p99 := (99*n + 99) / 100 // ceil(0.99 n)
	return min(max(n-10, n/2+1), p99)
}

// tail returns the tail value and the percentile it stands for.
func (s sample) tail() (v, pct float64) {
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	r := tailRank(n)
	return s.rank(r), 100 * float64(r) / float64(n)
}

// cycleTail is the median over cycles of each cycle's tail. It applies
// only when every cycle alone has enough samples for a p99 with ten
// beyond it; then a stall that hits one cycle does not set the run's
// tail, as it would for the p99 of all cycles pooled.
func cycleTail(cycles []sample) (float64, bool) {
	var tails sample
	for _, c := range cycles {
		if len(c) < minP99Samples {
			return 0, false
		}
		t, _ := c.tail()
		tails = append(tails, t)
	}
	return tails.median(), len(tails) > 0
}

// minP99Samples is the smallest sample whose tail is the p99.
const minP99Samples = 1000

// pyQuartiles reproduces Python's statistics.quantiles(xs, n=4) with
// its default "exclusive" method, so spreads computed here match the
// ones a Python check computes from the same values.
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
