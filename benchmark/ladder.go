package main

// The open-loop rate ladder of serve_durable and the rule that places it.
//
// A rung passes when its windowed p99 is within the SLO, at most 0.1 % of
// the offered transactions failed, and the rung committed at least 95 % of
// the offered rate — it kept up, no growing backlog. (Keeping up is judged
// over the whole rung, not its last second: a second of Poisson arrivals at
// 2,000 txn/s has a standard deviation of 2.2 %, so a last-second 95 % test
// fails a perfectly healthy rung about one run in seventy.)
// max_rate_in_slo is the highest rate up to which every rung passes.
//
// Placement rule: rungs and SLO must put the knee BETWEEN two rungs — over
// ten runs the same rung must be the top passing one at least nine times,
// and it must not be the ladder's top rung (then the knee is above the
// ladder and the metric only echoes its input). kneeBetweenRungs decides
// that from ten readings; -selfcheck applies it. A ladder that cannot meet
// the rule leaves max_rate_in_slo a per-layer metric — and it is one anyway:
// it is quantised to the rungs, so as an end-to-end metric it would read
// exactly the same on every run or flip by a whole rung, and no regression
// bound fits either.

const (
	ladderSeconds    = 4
	rungFailedShare  = 0.001
	rungKeepUpShare  = 0.95
	kneeAgreeingRuns = 0.9
)

// rungResult is one rung's reading.
type rungResult struct {
	Rate        int
	P99US       float64 // median of the windowed p99s
	FailedShare float64
	Throughput  float64 // committed / elapsed over the rung
}

func rungOf(rate int, dp *drivePass) rungResult {
	rr := rungResult{Rate: rate, P99US: median(dp.Lat.P99s) / 1e3, Throughput: dp.throughput()}
	if dp.Offered > 0 {
		rr.FailedShare = float64(dp.Offered-dp.Committed) / float64(dp.Offered)
	}
	return rr
}

func (r rungResult) passes(sloUS float64) bool {
	return r.P99US > 0 && r.P99US <= sloUS &&
		r.FailedShare <= rungFailedShare &&
		r.Throughput >= rungKeepUpShare*float64(r.Rate)
}

// maxRateInSLO is the rate of the last rung before the first failing one
// (rungs ascending); 0 when the lowest rung already fails.
func maxRateInSLO(rungs []rungResult, sloUS float64) float64 {
	best := 0
	for _, r := range rungs {
		if !r.passes(sloUS) {
			break
		}
		best = r.Rate
	}
	return float64(best)
}

// kneeBetweenRungs applies the placement rule to the max_rate_in_slo
// readings of several runs over the given ladder (ascending rates).
func kneeBetweenRungs(readings []float64, ladder []int) bool {
	if len(readings) == 0 || len(ladder) < 2 {
		return false
	}
	counts := make(map[float64]int)
	for _, r := range readings {
		counts[r]++
	}
	for rate, n := range counts {
		if float64(n) >= kneeAgreeingRuns*float64(len(readings)) {
			return rate > 0 && rate < float64(ladder[len(ladder)-1])
		}
	}
	return false
}
