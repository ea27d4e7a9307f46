package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least a share q of the samples at or below it. xs is sorted in
// place. An empty set has no quantile; it reports 0.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// beyond is how many of n samples lie above the nearest-rank q-quantile:
// the tail a reported percentile rests on.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func durs(ds []time.Duration) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = int64(d)
	}
	return out
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// per divides, reporting 0 for an empty denominator (a layer the workload
// never reaches).
func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxWindows caps how many stretches a phase is split into.
const maxWindows = 30

// window is one stretch of a phase: the ops that completed in it and the
// process CPU time it used.
type window struct {
	lat []int64
	dur time.Duration
	cpu time.Duration
}

// windows splits a phase by op completion time into equal stretches, one
// per windowOps completed ops (at least one, at most maxWindows), so that
// every window's p99 rests on about 12 samples beyond it. The end-to-end
// metrics are medians across windows: a shared host's speed swings by
// ±15% from one second to the next, and a median over many short windows
// keeps a slow stretch from moving the result.
func windows(pr *phaseResult) []window {
	n := windowCount(len(pr.lat))
	w := make([]window, n)
	step := pr.wall / time.Duration(n)
	for i := range w {
		w[i].dur = step
		a, b := pr.start.Add(step*time.Duration(i)), pr.start.Add(step*time.Duration(i+1))
		w[i].cpu = cpuAt(pr.ticks, b) - cpuAt(pr.ticks, a)
	}
	for i, d := range pr.done {
		k := min(int(d.Sub(pr.start)/step), n-1)
		w[k].lat = append(w[k].lat, int64(pr.lat[i]))
	}
	return w
}

// windowOps is the fewest ops a window holds on average.
const windowOps = 1200

func windowCount(ops int) int { return min(max(ops/windowOps, 1), maxWindows) }

// medianOver is the median across windows of f, skipping windows where no
// op completed.
func medianOver(ws []window, f func(window) float64) float64 {
	var xs []float64
	for _, w := range ws {
		if len(w.lat) > 0 {
			xs = append(xs, f(w))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return medianFloat(xs)
}
