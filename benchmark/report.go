package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	Seed    int64
	Seconds int     // the load budget every transaction count is derived from
	Trace   bool    // false: end-to-end metrics; true: per-layer metrics
	Scale   float64 // 1 for real runs; the smoke test shrinks every count
	OutDir  string  // data dirs, result.json, trace.json
}

// scaled sizes a transaction count: perSecond × Seconds × Scale, at least
// min. Runs are sized by COUNT, not by elapsed time, because the drifts the
// benchmark exists to expose (checkpoint cost, closure growth) are
// functions of the committed count — a faster build must not be handed a
// harder run.
func (rc runConfig) scaled(perSecond, min int) int {
	return rc.fixed(perSecond*rc.Seconds, min)
}

// fixed sizes a count that does not depend on the budget (traced passes,
// audited phases): n × Scale, at least min.
func (rc runConfig) fixed(n, min int) int {
	n = int(float64(n) * rc.Scale)
	if n < min {
		n = min
	}
	return n
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runReport is everything one workload run produced.
type runReport struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Host        hostStamp          `json:"host"`
	Callers     int                `json:"callers"`
	RequestHash string             `json:"request_hash"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedBy    map[string]int     `json:"failed_by_status,omitempty"`
	Checks      []checkResult      `json:"checks"`
	Metrics     map[string]float64 `json:"metrics"`
	// Samples states, per timing metric, how many samples stand behind it.
	Samples map[string]int `json:"samples,omitempty"`
	Notes   []string       `json:"notes,omitempty"`
}

func newReport(name string, rc runConfig, callers int) *runReport {
	return &runReport{
		Workload: name, Seed: rc.Seed, Trace: rc.Trace, Callers: callers,
		FailedBy: make(map[string]int),
		Metrics:  make(map[string]float64),
		Samples:  make(map[string]int),
	}
}

// count folds one pass's offered/failed tallies into the report.
func (r *runReport) count(p *passResult) {
	r.Attempted += p.Offered
	r.Failed += p.failedCount()
	for s, n := range p.Failed {
		r.FailedBy[s] += n
	}
}

func (r *runReport) check(cs ...checkResult) { r.Checks = append(r.Checks, cs...) }

// checkPhase records the checks of one named phase ("audited", "traced"),
// so a run that checks the same property twice says which time it failed.
func (r *runReport) checkPhase(phase string, cs ...checkResult) {
	for _, c := range cs {
		c.Name = phase + ":" + c.Name
		r.Checks = append(r.Checks, c)
	}
}

// correct: every output check passed and at least one ran.
func (r *runReport) correct() bool {
	if len(r.Checks) == 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *runReport) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// complete fills every metric of the active table the run did not produce
// with 0 — "this workload does not exercise that layer" — and reports any
// metric that is not in the table (a programming error).
func (r *runReport) complete() error {
	known := make(map[string]bool)
	for _, d := range r.defs() {
		known[d.Name] = true
		if _, ok := r.Metrics[d.Name]; !ok {
			if !r.Trace {
				return fmt.Errorf("benchmark: workload %s produced no end-to-end metric %s", r.Workload, d.Name)
			}
			r.Metrics[d.Name] = 0
		}
	}
	for name := range r.Metrics {
		if !known[name] {
			return fmt.Errorf("benchmark: workload %s produced undeclared metric %s", r.Workload, name)
		}
	}
	return nil
}

// printHuman lists every metric by name with its unit, then the checks.
func (r *runReport) printHuman(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  callers %d  requests %s\n", r.Workload, r.Seed, r.Trace, r.Callers, r.RequestHash)
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %s, kernel %s, data dir on %s\n",
		r.Host.CPUs, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Kernel, r.Host.DataDirFS)
	for _, d := range r.defs() {
		line := fmt.Sprintf("  %-32s %14.4f %-8s", d.Name, r.Metrics[d.Name], d.Unit)
		if n, ok := r.Samples[d.Name]; ok {
			line += fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-26s %s\n", verdict, c.Name, c.Detail)
	}
	if r.Failed > 0 {
		statuses := make([]string, 0, len(r.FailedBy))
		for s, n := range r.FailedBy {
			statuses = append(statuses, fmt.Sprintf("%s=%d", s, n))
		}
		sort.Strings(statuses)
		fmt.Fprintf(w, "  failed %d of %d: %v\n", r.Failed, r.Attempted, statuses)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runReport) resultLine() string {
	line := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue)}
	for _, d := range r.defs() {
		line.Metrics[d.Name] = metricValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	b, _ := json.Marshal(line) // a map of floats and strings cannot fail to marshal
	return string(b)
}
