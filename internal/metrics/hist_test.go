package metrics

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 64; v++ {
		h.Record(v)
	}
	if h.Count() != 64 {
		t.Fatalf("count = %d, want 64", h.Count())
	}
	if h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("min/max = %d/%d, want 0/63", h.Min(), h.Max())
	}
	// Values below 64 land in unit buckets, so quantiles are exact.
	if got := h.Percentile(50); got != 32 {
		t.Fatalf("p50 = %d, want 32", got)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	var samples []int64
	for i := 0; i < 200000; i++ {
		// Log-uniform over ~6 decades of "nanoseconds".
		v := int64(1) << uint(rng.Intn(40))
		v += rng.Int63n(v)
		h.Record(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := samples[int(p/100*float64(len(samples)-1))]
		got := h.Percentile(p)
		err := float64(got-exact) / float64(exact)
		if err < 0 {
			err = -err
		}
		if err > 0.02 {
			t.Errorf("p%.1f = %d vs exact %d: relative error %.3f > 2%%", p, got, exact, err)
		}
	}
}

func TestHistogramCorrected(t *testing.T) {
	// One 10ms stall at a 1ms expected interval back-fills 9 phantom
	// samples: 9ms, 8ms, ... 1ms.
	h := NewHistogram()
	h.RecordCorrected(10_000_000, 1_000_000)
	if h.Count() != 10 {
		t.Fatalf("corrected count = %d, want 10", h.Count())
	}
	// Uncorrected, the same stall is a single sample.
	u := NewHistogram()
	u.Record(10_000_000)
	if u.Count() != 1 {
		t.Fatalf("uncorrected count = %d, want 1", u.Count())
	}
	// The corrected median sits mid-stall; uncorrected it is the stall.
	if p50 := h.Percentile(50); p50 > 6_000_000 {
		t.Errorf("corrected p50 = %d, want mid-stall (≤6ms)", p50)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		if v%2 == 0 {
			a.Record(v * 1000)
		} else {
			b.Record(v * 1000)
		}
	}
	a.Merge(b)
	if a.Count() != 1000 {
		t.Fatalf("merged count = %d, want 1000", a.Count())
	}
	if a.Min() != 1000 || a.Max() != 1000000 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
	p50 := a.Percentile(50)
	if p50 < 480000 || p50 > 520000 {
		t.Errorf("merged p50 = %d, want ≈500000", p50)
	}
	// Merging an empty histogram is a no-op.
	before := a.Count()
	a.Merge(NewHistogram())
	a.Merge(nil)
	if a.Count() != before {
		t.Errorf("empty merge changed count")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Percentile(99) != 0 {
		t.Fatalf("empty histogram not all-zero")
	}
}

func TestHistogramRecordAllocs(t *testing.T) {
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.Record(123456) }); n != 0 {
		t.Fatalf("Record allocates %v per call, want 0", n)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i)*7919 + 1)
	}
}

// TestHistogramSummary: Summary is the histogram's own order statistics —
// exact on small values, zero when empty, degenerate on a singleton.
func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{5, 1, 9, 3, 7} {
		h.Record(v)
	}
	s := h.Summary()
	if s.N != 5 || s.Min != 1 || s.Max != 9 || s.P50 != 5 || s.Mean != 5 {
		t.Errorf("summary = %+v", s)
	}
	if z := NewHistogram().Summary(); z != (Summary{}) {
		t.Errorf("empty summary = %+v", z)
	}
	one := NewHistogram()
	one.Record(42)
	if s := one.Summary(); s.P50 != 42 || s.P99 != 42 || s.Min != 42 {
		t.Errorf("singleton = %+v", s)
	}
}

// RecordCorrected adds a sample with coordinated-omission back-fill: when a
// measured service time exceeds the expected sampling interval, the stalled
// requests that a closed-loop driver silently failed to issue are
// reconstructed as v-interval, v-2·interval, … so the quantiles reflect the
// latency an open-loop arrival process would have observed. Open-loop
// drivers that timestamp from the *scheduled* arrival should use plain
// Record — their samples already include queueing delay.
func (h *Histogram) RecordCorrected(v, expectedInterval int64) {
	h.Record(v)
	if expectedInterval <= 0 {
		return
	}
	for missed := v - expectedInterval; missed >= expectedInterval; missed -= expectedInterval {
		h.Record(missed)
	}
}
