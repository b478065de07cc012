package main

import "testing"

func TestMaxRateInSLOStopsAtTheFirstFailingRung(t *testing.T) {
	const slo = 15_000 // µs
	ok := func(rate int) rungResult { return rungResult{Rate: rate, P99US: 8_000, Throughput: float64(rate)} }
	for _, tc := range []struct {
		name  string
		rungs []rungResult
		want  float64
	}{
		{"all pass", []rungResult{ok(2000), ok(3500), ok(4500)}, 4500},
		{"p99 over the SLO", []rungResult{ok(2000), ok(3500), {Rate: 4500, P99US: 30_000, Throughput: 4480}}, 3500},
		{"a later pass does not rescue an earlier fail", []rungResult{ok(2000), {Rate: 3500, P99US: 16_000, Throughput: 3490}, ok(4500)}, 2000},
		{"failures count against the limit", []rungResult{ok(2000), {Rate: 3500, P99US: 8_000, FailedShare: 0.002, Throughput: 3490}}, 2000},
		{"a growing backlog fails the rung", []rungResult{ok(2000), {Rate: 3500, P99US: 8_000, Throughput: 3300}}, 2000},
		{"no supported p99 is not a pass", []rungResult{{Rate: 2000, P99US: 0, Throughput: 1995}}, 0},
		{"lowest rung fails", []rungResult{{Rate: 2000, P99US: 20_000, Throughput: 1995}, ok(3500)}, 0},
	} {
		if got := maxRateInSLO(tc.rungs, slo); got != tc.want {
			t.Errorf("%s: maxRateInSLO = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestKneeMustLieBetweenRungs(t *testing.T) {
	ladder := []int{2000, 3500, 4500}
	rep := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		readings []float64
		want     bool
	}{
		{"ten of ten on the middle rung", rep(3500, 10), true},
		{"nine of ten", append(rep(3500, 9), 2000), true},
		{"eight of ten: the knee sits on a rung", append(rep(3500, 8), 2000, 4500), false},
		{"always the top rung: the knee is above the ladder", rep(4500, 10), false},
		{"never passes anything", rep(0, 10), false},
		{"no readings", nil, false},
	} {
		if got := kneeBetweenRungs(tc.readings, ladder); got != tc.want {
			t.Errorf("%s: kneeBetweenRungs = %v, want %v", tc.name, got, tc.want)
		}
	}
}
