package main

import (
	"math"
	"sort"

	"quq/internal/serve/metrics"
)

// quantile is one nearest-rank percentile together with the sample
// count behind it, so a reader can tell how many samples lie beyond it.
type quantile struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"` // samples strictly above the rank
}

// nearestRank returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank method: the smallest sample such that at least q·n
// samples are at or below it. xs is not modified. An empty input yields
// the zero quantile.
func nearestRank(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return quantile{Value: s[rank-1], N: n, Beyond: n - rank}
}

// median of xs by nearest rank.
func median(xs []float64) float64 { return nearestRank(xs, 0.5).Value }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// value reads a counter or gauge, or a histogram's observation count,
// from a parsed /metrics page; a family the page does not carry reads
// as zero (a counter that was never registered has never counted).
func value(e *metrics.Exposition, name string) float64 {
	if v, ok := e.Scalar(name); ok {
		return v
	}
	if c, ok := e.HistCount(name); ok {
		return float64(c)
	}
	return 0
}

// delta is after−before for one family: the work a timed phase did.
func delta(before, after *metrics.Exposition, name string) float64 {
	return value(after, name) - value(before, name)
}
