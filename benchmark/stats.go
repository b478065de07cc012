package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles the benchmark is willing to
// report. A percentile is reportable only when at least minBeyond samples
// lie beyond it (choosing-metrics §1): with fewer, the value is one or two
// outliers, not a property of the system.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

const minBeyond = 10

// highestPercentile returns the highest ladder percentile that n samples
// support, or 0 when not even the median has minBeyond samples beyond it.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		// Integer arithmetic (p is a multiple of 0.01): n·(1−p/100) ≥ minBeyond.
		if int64(n)*(10000-int64(math.Round(p*100))) >= minBeyond*10000 {
			best = p
		}
	}
	return best
}

// supports reports whether n samples are enough to report percentile p.
func supports(n int, p float64) bool { return highestPercentile(n) >= p }

// percentileOf returns percentile p (0–100) of the sorted samples, linearly
// interpolated between ranks so that a stable distribution still reads with
// all its digits from run to run.
func percentileOf(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// windowStats is the latency summary of one run: each consecutive window
// (a fixed transaction count in process, a fixed time over HTTP) yields its
// own percentiles, and the run reports the MEDIAN of the window values, so
// one device stall or one GC pause moves one window, not the metric.
type windowStats struct {
	P50s, P99s []float64 // per window, nanoseconds
	Samples    int       // total latency samples
	PerWindow  int       // samples in the smallest counted window
}

// addWindow records one window of nanosecond samples (sorted in place),
// unless it is too small to support a p99. Callers report Samples and
// PerWindow next to the numbers.
func (ws *windowStats) addWindow(w []int64) {
	if !supports(len(w), 99) {
		return
	}
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	ws.P50s = append(ws.P50s, percentileOf(w, 50))
	ws.P99s = append(ws.P99s, percentileOf(w, 99))
	ws.Samples += len(w)
	if ws.PerWindow == 0 || len(w) < ws.PerWindow {
		ws.PerWindow = len(w)
	}
}

// merge folds another caller's windows in.
func (ws *windowStats) merge(o windowStats) {
	ws.P50s = append(ws.P50s, o.P50s...)
	ws.P99s = append(ws.P99s, o.P99s...)
	ws.Samples += o.Samples
	if ws.PerWindow == 0 || (o.PerWindow > 0 && o.PerWindow < ws.PerWindow) {
		ws.PerWindow = o.PerWindow
	}
}

// windowedPercentiles summarises already-formed windows.
func windowedPercentiles(windows [][]int64) windowStats {
	var ws windowStats
	for _, w := range windows {
		ws.addWindow(w)
	}
	return ws
}

// quartileSpread is the self-check's steadiness number: (Q3 − Q1) / median
// with the exclusive-method quartiles Python's statistics.quantiles(n=4)
// uses, so the committed self-check reads the same as the driver's.
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := median(s)
	if med == 0 {
		return math.Inf(1)
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// percentileOfUnsorted is percentileOf over a copy of xs.
func percentileOfUnsorted(xs []int64, p float64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentileOf(s, p)
}
