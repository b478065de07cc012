package metrics

import "math/bits"

// Histogram is a log-linear latency histogram in the HdrHistogram style:
// values are bucketed with a fixed relative error instead of being stored
// individually, so recording is O(1) with no allocation and a multi-million
// sample run costs the same memory as a short one (~30KB). Each power-of-two
// range is split into 64 sub-buckets, bounding the relative quantile error
// at 1/64 ≈ 1.6%; values below 64 are exact. The value domain is the full
// non-negative int64 range — nanosecond latencies up to ~292 years fit
// without clamping.
//
// A Histogram is not safe for concurrent use. The intended pattern is one
// Histogram per load-generator worker, combined with Merge at the end of the
// run; that keeps the record path free of shared-cache contention.
type Histogram struct {
	counts [nBuckets]uint64
	total  uint64
	sum    int64
	min    int64
	max    int64
}

const (
	histSubBits  = 6
	histSubCount = 1 << histSubBits // sub-buckets per power-of-two range
	// Exponent e covers [histSubCount<<e, histSubCount<<(e+1)); the largest
	// int64 has bit length 63, so e ranges over [0, 63-histSubBits-1+1).
	nBuckets = (63 - histSubBits + 1) * histSubCount
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: int64(^uint64(0) >> 1)}
}

// bucketOf maps a value to its bucket index. Values in [0, 64) map to
// themselves; a value with e extra significant bits maps into the 64-wide
// band for its power-of-two range.
func bucketOf(v int64) int {
	if v < histSubCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	return (e+1)*histSubCount + int(v>>uint(e)) - histSubCount
}

// bucketMid returns the representative (midpoint) value of bucket i, used
// when reading quantiles back out.
func bucketMid(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	e := i/histSubCount - 1
	lower := int64(i-e*histSubCount) << uint(e)
	return lower + int64(1)<<uint(e)/2
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean of the recorded samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Percentile returns the value at percentile p (0–100), within the 1.6%
// bucketing error; the exact recorded extremes are returned at the ends.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(p / 100 * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			m := bucketMid(i)
			if m < h.min {
				m = h.min
			}
			if m > h.max {
				m = h.max
			}
			return m
		}
	}
	return h.max
}

// Summary holds order statistics of a sample set.
type Summary struct {
	N             int
	Min, Max      int64
	Mean          float64
	P50, P95, P99 int64
}

// Summary returns order statistics over the samples recorded so far; an
// empty histogram yields a zero Summary.
func (h *Histogram) Summary() Summary {
	return Summary{
		N:    int(h.total),
		Min:  h.Min(),
		Max:  h.Max(),
		Mean: h.Mean(),
		P50:  h.Percentile(50),
		P95:  h.Percentile(95),
		P99:  h.Percentile(99),
	}
}
