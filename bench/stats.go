package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples: the count, the quartiles and
// the 90th percentile. Quantiles interpolate linearly between order
// statistics, like Python's statistics.quantiles(method="inclusive").
type summary struct {
	N      int     `json:"samples"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	P90    float64 `json:"p90"`
}

func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.50),
		Q3:     quantile(s, 0.75),
		P90:    quantile(s, 0.90),
	}
}

// quantile returns the q-quantile of sorted, which must be non-empty.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return summarize(samples).Median }
