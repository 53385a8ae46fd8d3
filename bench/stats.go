package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// two nearest order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spreadOf is the steadiness measure the driver applies to a metric's values
// over a set of runs: the distance between the first and third quartile as a
// share of the median, the quartiles taken as Python's statistics.quantiles
// takes them (its default, exclusive method). Zero below four values.
func spreadOf(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (quartile(3) - quartile(1)) / math.Abs(median(s))
}

// tailPercentile picks the highest whole percentile that still has at least
// ten samples beyond it, and returns it with its value. With fewer than
// twenty samples there is none above the median, which is returned.
func tailPercentile(xs []float64) (pct int, value float64) {
	pct = 50
	if n := len(xs); n >= 20 {
		pct = int(100 * (1 - 10/float64(n)))
	}
	return pct, quantile(xs, float64(pct)/100)
}

// summary is a host-time metric's pooled median with what the reader needs
// to judge it: how many samples, how the per-chain medians spread, and the
// tail.
type summary struct {
	median  float64
	n       int
	chainQ1 float64 // quartiles of the per-chain medians
	chainQ3 float64
	tailPct int
	tail    float64
}

// summarize pools the chains' samples. perChain[i] holds chain i's samples.
func summarize(perChain [][]float64) summary {
	var pooled, medians []float64
	for _, xs := range perChain {
		if len(xs) == 0 {
			continue
		}
		pooled = append(pooled, xs...)
		medians = append(medians, median(xs))
	}
	s := summary{median: median(pooled), n: len(pooled)}
	s.chainQ1, s.chainQ3 = quantile(medians, 0.25), quantile(medians, 0.75)
	s.tailPct, s.tail = tailPercentile(pooled)
	return s
}
