package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of vals by linear interpolation between
// the closest ranks; NaN for no values.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile 0.5, and 0 for no values so an absent sample reports
// as zero work rather than NaN.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return quantile(vals, 0.5)
}

// supportedPercentiles are the tail percentiles a report may show.
var supportedPercentiles = []float64{99, 95, 90, 75}

// highestPercentile returns the highest percentile with at least ten samples
// beyond it, as a label and value; ok is false when n < 40 supports none.
func highestPercentile(vals []float64) (label string, v float64, ok bool) {
	n := float64(len(vals))
	for _, p := range supportedPercentiles {
		if n*(100-p) >= 1000 { // at least ten samples above the percentile
			return fmt.Sprintf("p%g", p), quantile(vals, p/100), true
		}
	}
	return "", 0, false
}
