// Command benchmark is the repo's yardstick: four workloads, five bounded
// end-to-end metrics, and per-layer probes and counters, all measured from
// outside the packages under test. See README.md in this directory.
//
//	go run ./benchmark -seed 1                     every workload, both passes
//	go run ./benchmark -workload bank_2pl -trace 0 one workload, end-to-end metrics
//	go run ./benchmark -selfcheck                  two sets of runs, compared
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; the exit code is nonzero when
// an output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (default: all four, each in its own process)")
		seed      = flag.Int64("seed", 1, "generates every request list; same seed, same inputs")
		seconds   = flag.Int("seconds", 15, "load budget: every transaction count is a constant times this")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced pass and probes")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for data dirs, result.json and trace files")
		selfcheck = flag.Bool("selfcheck", false, "run two back-to-back sets of ten runs per workload and compare them against the metrics' bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	rc := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Scale: 1, OutDir: *outDir}
	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(rc)
	case *workload != "":
		err = runOne(*workload, rc)
	default:
		err = runAll(rc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// execute runs one workload in this process under the fixed load shape.
func execute(name string, rc runConfig) (*runReport, error) {
	wd := workloadByName(name)
	if wd == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(rc.OutDir, 0o755); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(maxProcs())
	defer os.RemoveAll(dataRoot(rc))
	rep, err := wd.run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep.Host = stampHost(rc.OutDir)
	if err := rep.complete(); err != nil {
		return nil, err
	}
	for name, v := range rep.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return rep, nil
}

var errIncorrect = fmt.Errorf("an output check failed")

// runOne is the driver's entry point: human-readable lines, then the result
// line last.
func runOne(name string, rc runConfig) error {
	rep, err := execute(name, rc)
	if err != nil {
		return err
	}
	rep.printHuman(os.Stdout)
	if err := writeJSON(filepath.Join(rc.OutDir, fmt.Sprintf("result-%s-trace%d.json", name, b2i(rc.Trace))), rep); err != nil {
		return err
	}
	fmt.Println(rep.resultLine())
	if !rep.correct() {
		return errIncorrect
	}
	return nil
}

// runAll re-executes this binary once per workload and pass, so set-up
// time, peak RSS and CPU are per workload, then writes the combined
// result.json and trace.json.
func runAll(rc runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var reports []*runReport
	failed := false
	for _, wd := range workloads {
		for _, tr := range []int{0, 1} {
			lines, runErr := childLines(self, wd.Name, rc.Seed, rc, tr)
			if runErr != nil {
				fmt.Println(strings.Join(lines, "\n"))
				fmt.Fprintln(os.Stderr, "benchmark:", runErr)
				failed = true
				continue
			}
			// Everything but the machine-readable last line is the listing.
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			var rep runReport
			path := filepath.Join(rc.OutDir, fmt.Sprintf("result-%s-trace%d.json", wd.Name, tr))
			if err := readJSON(path, &rep); err != nil {
				return err
			}
			reports = append(reports, &rep)
		}
	}
	if err := writeJSON(filepath.Join(rc.OutDir, "result.json"), reports); err != nil {
		return err
	}
	if err := mergeTraces(rc.OutDir); err != nil {
		return err
	}
	// The paper's open question as a number: same request list, same engine,
	// closure gate against locks.
	tps := make(map[string]float64)
	for _, rep := range reports {
		if !rep.Trace {
			tps[rep.Workload] = rep.Metrics["throughput_tps"]
		}
	}
	if tps["bank_2pl"] > 0 && tps["bank_mla"] > 0 {
		fmt.Printf("throughput_tps(bank_mla) / throughput_tps(bank_2pl) = %.1f / %.1f = 1/%.0f\n",
			tps["bank_mla"], tps["bank_2pl"], tps["bank_2pl"]/tps["bank_mla"])
	}
	fmt.Printf("wrote %s and %s\n", filepath.Join(rc.OutDir, "result.json"), filepath.Join(rc.OutDir, "trace.json"))
	if failed {
		return errIncorrect
	}
	return nil
}

// mergeTraces concatenates the per-workload Chrome traces into trace.json,
// one process lane per workload.
func mergeTraces(dir string) error {
	var all []chromeEvent
	for pid, wd := range workloads {
		var doc struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := readJSON(filepath.Join(dir, "trace-"+wd.Name+".json"), &doc); err != nil {
			return err
		}
		for _, ev := range doc.TraceEvents {
			ev.PID = pid + 1
			all = append(all, ev)
		}
		all = append(all, chromeEvent{Name: "process_name", Ph: "M", PID: pid + 1, Args: map[string]any{"name": wd.Name}})
	}
	return writeTrace(filepath.Join(dir, "trace.json"), all)
}

// writeTrace writes a Chrome trace document, compactly: traces are large
// and read by tools.
func writeTrace(path string, events []chromeEvent) error {
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
