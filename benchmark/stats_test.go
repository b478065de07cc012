package main

import (
	"math"
	"testing"
	"time"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, // the median itself needs 20 samples
		{20, 50}, {99, 50},
		{100, 90}, {999, 90}, // p99 of 999 samples has 9.99 beyond it
		{1000, 99}, {9_999, 99},
		{10_000, 99.9}, {99_999, 99.9},
		{100_000, 99.99},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if supports(999, 99) || !supports(1000, 99) {
		t.Error("a p99 must be supported from exactly 1,000 samples")
	}
}

func TestPercentileOfInterpolates(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}} {
		if got := percentileOf(s, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentileOf(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentileOf(nil, 99); got != 0 {
		t.Errorf("empty input: %v", got)
	}
}

// TestWindowedP99IgnoresOneStall is the reason for windowing: a stall that
// ruins one window moves one window's p99, and the median over windows
// does not move at all.
func TestWindowedP99IgnoresOneStall(t *testing.T) {
	mk := func(stalled bool) []int64 {
		w := make([]int64, 2000)
		for i := range w {
			w[i] = int64(1000 + i%100) // ~1 µs, tight
			if stalled && i%10 == 0 {
				w[i] = int64(50 * time.Millisecond)
			}
		}
		return w
	}
	calm := windowedPercentiles([][]int64{mk(false), mk(false), mk(false), mk(false), mk(false)})
	oneStall := windowedPercentiles([][]int64{mk(false), mk(false), mk(true), mk(false), mk(false)})
	if median(calm.P99s) != median(oneStall.P99s) {
		t.Errorf("median windowed p99 moved with one stalled window: %v vs %v", median(calm.P99s), median(oneStall.P99s))
	}
	if oneStall.P99s[2] < float64(10*time.Millisecond) {
		t.Errorf("the stalled window's own p99 should show the stall, got %v ns", oneStall.P99s[2])
	}
	// A window too small for a p99 is dropped, not reported.
	ws := windowedPercentiles([][]int64{mk(false), make([]int64, 999)})
	if len(ws.P99s) != 1 || ws.Samples != 2000 || ws.PerWindow != 2000 {
		t.Errorf("undersized window was not dropped: %+v", ws)
	}
}

// TestQuartileSpreadMatchesPython pins the spread against
// statistics.quantiles(values, n=4) (exclusive method), which the driver
// uses: for 1..10 it gives [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{3, 1, 2, 5, 4, 7, 6, 9, 8, 10}
	want := (8.25 - 2.75) / 5.5
	if got := quartileSpread(v); math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 11, 12, 14, 19], n=4) == [10.5, 12.0, 16.5]
	if got, want := quartileSpread([]float64{10, 11, 12, 14, 19}), (16.5-10.5)/12.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
