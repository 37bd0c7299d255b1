package main

import (
	"math"
	"sort"
)

// Latencies are kept as raw nanosecond samples and sorted when a quantile is
// asked for: a run holds at most a few hundred thousand of them, and an exact
// order statistic never reads the same on two runs the way a histogram
// bucket edge can.

// quantile returns the nearest-rank q-quantile of sorted (ascending) samples,
// 0 when there are none.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median of float values (mean of the middle two for an even count); 0 for
// none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianInt(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f)
}

// timed is one latency sample placed on the stage's clock by the time the
// request was DUE, so a stall is charged to the requests it delayed.
type timed struct {
	due int64 // ns since stage start
	lat int64 // ns, completion − due
}

// windowQuantile splits samples into consecutive windows of width ns by due
// time, takes the q-quantile of each window that has at least minBeyond
// samples beyond it, and returns the median of those window quantiles with
// the number of windows used. One slow window (a GC cycle, a neighbour on the
// box) moves a whole-stage p99 but not the median of the windows' p99s, which
// is what makes the tail repeat from run to run.
func windowQuantile(samples []timed, width int64, q float64, minBeyond int) (float64, int) {
	if width <= 0 {
		return 0, 0
	}
	byWin := map[int64][]int64{}
	for _, s := range samples {
		w := s.due / width
		byWin[w] = append(byWin[w], s.lat)
	}
	var qs []float64
	for _, lats := range byWin {
		if float64(len(lats))*(1-q) < float64(minBeyond) {
			continue
		}
		qs = append(qs, float64(quantile(sortedCopy(lats), q)))
	}
	return median(qs), len(qs)
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the driver uses for spreads.
// It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
