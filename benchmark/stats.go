package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics. It sorts a copy; vs is left untouched. An empty
// input yields NaN so a missing sample can never pass for a measurement.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// iqrPct is the interquartile spread of vs as a percentage of its median —
// the harness's own noise indicator.
func iqrPct(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	return 100 * (quantile(vs, 0.75) - quantile(vs, 0.25)) / m
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	return sum(vs) / float64(len(vs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// timed runs f and returns how long it took.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// mbPerS is bytes moved in d, in 10⁶ bytes per second.
func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return math.NaN()
	}
	return float64(bytes) / 1e6 / d.Seconds()
}
