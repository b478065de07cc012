package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// -selfcheck answers one question before anyone trusts a comparison made
// with this benchmark: do two sets of runs of the SAME code agree? For
// every workload it makes two back-to-back sets of runs (each run its own
// process, each with its own seed) and, for every end-to-end metric, checks
// what the driver checks:
//
//   - steadiness: the quartile spread (Q3−Q1)/median of each set stays
//     within the metric's bound (setup_s is exempt: it is short and noisy,
//     which is why it carries the largest bound);
//   - agreement: the second set's median is not worse than the first's by
//     more than the bound.
//
// It then applies the ladder placement rule (ladder.go) to ten -trace 1 runs
// of serve_durable. The output is committed as SELFCHECK.txt.

// childLines runs one workload run in a fresh process (so set-up time, RSS
// and CPU are that run's alone) and returns its standard output by line;
// the last line is the result line. On a nonzero exit both are returned.
func childLines(self, workload string, seed int64, rc runConfig, trace int) ([]string, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(rc.Seconds), "-trace", fmt.Sprint(trace), "-out", rc.OutDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		err = fmt.Errorf("%s -seed %d -trace %d: %w", workload, seed, trace, err)
	}
	return strings.Split(strings.TrimRight(string(out), "\n"), "\n"), err
}

// runChild is childLines with the result line parsed.
func runChild(self, workload string, seed int64, rc runConfig, trace int) (resultLine, error) {
	lines, err := childLines(self, workload, seed, rc, trace)
	if err != nil {
		return resultLine{}, err
	}
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return resultLine{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return res, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, res.Correct, res.Failed)
	}
	return res, nil
}

// compact prints values with four significant digits.
func compact(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return strings.Join(parts, " ")
}

// worseBy is how much worse b is than a, as a share of a (negative: better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func runSelfcheck(rc runConfig) error {
	const runs = 10 // the size of each set the driver makes
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("selfcheck: %d runs per set, -seconds %d, two sets per workload, back to back\n", runs, rc.Seconds)
	ok := true
	for _, wd := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for k := 0; k < runs; k++ {
				seed := int64(1 + s*runs + k)
				res, err := runChild(self, wd.Name, seed, rc, 0)
				if err != nil {
					return err
				}
				for name, mv := range res.Metrics {
					sets[s][name] = append(sets[s][name], mv.Value)
				}
			}
		}
		fmt.Printf("\n%s\n  %-16s %14s %14s %9s %9s %9s %7s  %s\n", wd.Name,
			"metric", "median A", "median B", "spread A", "spread B", "B worse", "bound", "verdict")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			sa, sb := quartileSpread(a), quartileSpread(b)
			shift := worseBy(d, ma, mb)
			verdict := "ok"
			if d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound) {
				verdict = "UNSTEADY"
			}
			if shift > d.Bound {
				verdict = "DISAGREE"
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Printf("  %-16s %14.4f %14.4f %8.2f%% %8.2f%% %+8.2f%% %6.0f%%  %s\n",
				d.Name, ma, mb, 100*sa, 100*sb, 100*shift, 100*d.Bound, verdict)
		}
		// Every run made, in run order, so drift and outliers are visible.
		for _, d := range endToEnd {
			fmt.Printf("  runs %-16s A %s\n  %21s B %s\n", d.Name, compact(sets[0][d.Name]), "", compact(sets[1][d.Name]))
		}
	}

	fmt.Printf("\nladder placement: %d -trace 1 runs of serve_durable, rungs %v txn/s, p99 SLO %v\n", runs, serveLadder, serveSLOp99)
	var readings []float64
	for k := 0; k < runs; k++ {
		res, err := runChild(self, "serve_durable", int64(1+k), rc, 1)
		if err != nil {
			return err
		}
		readings = append(readings, res.Metrics["serve.max_rate_in_slo"].Value)
	}
	fmt.Printf("  serve.max_rate_in_slo readings: %v\n", readings)
	if kneeBetweenRungs(readings, serveLadder) {
		fmt.Println("  knee between rungs: yes (>= 9 of 10 runs agree on a rung below the top one)")
	} else {
		fmt.Println("  knee between rungs: NO — re-place the rungs or the SLO before citing serve.max_rate_in_slo")
	}
	if !ok {
		return fmt.Errorf("selfcheck: the two sets do not agree within BENCHMARK.json's bounds")
	}
	fmt.Println("\nselfcheck: every end-to-end metric of every workload agrees within its bound")
	return nil
}
