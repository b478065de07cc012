// Command mlacheck decides multilevel atomicity of a recorded execution
// history: is the committed execution multilevel atomic as recorded, is it
// correctable, and if not, which minimal dependency cycle says so.
//
// Usage:
//
//	mlacheck [-witness] [-tree] [-timeline] [-stats] [-history] <file|->
//	mlacheck -sample
//
// The input is one history, named by -history, by the positional argument,
// or read from stdin (no argument, or "-") — all the same path. Its shape
// is sniffed from the content: a native mla-history/v1 document or a
// history spool (the JSONL stream mlaserve -spool appends, any number of
// boots).
//
// The independent black-box checker (internal/history) prints its verdict; on a violation the minimal witness cycle follows and
// the exit status is 2. Malformed input exits 1 with a diagnostic.
//
// -witness, -tree, -timeline and -stats additionally rebuild the committed
// execution, the nest and the recorded breakpoint descriptions from the
// history and run the white-box Theorem 2 analysis (internal/coherent) on
// them: -witness prints an equivalent multilevel atomic execution, -tree
// its Section 7 nested action tree, -timeline per-transaction lanes, -stats
// a per-transaction breakdown. The two deciders share no logic; if they
// ever disagree on a file, mlacheck says so and exits 3.
//
// -sample writes an example history (a correctable banking execution) to
// stdout, for trying the tool out.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mla/internal/bank"
	"mla/internal/coherent"
	"mla/internal/history"
	"mla/internal/metrics"
	"mla/internal/model"
	"mla/internal/nested"
	"mla/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// views selects the white-box outputs; any of them turns the second decider on.
type views struct{ witness, tree, timeline, stats bool }

func (v views) any() bool { return v.witness || v.tree || v.timeline || v.stats }

// run is main without the process exit, so tests can drive every path; the
// return value is the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlacheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var v views
	fs.BoolVar(&v.witness, "witness", false, "print the equivalent multilevel atomic execution")
	fs.BoolVar(&v.tree, "tree", false, "print the witness's Section 7 nested action tree")
	fs.BoolVar(&v.timeline, "timeline", false, "render the execution as per-transaction lanes")
	fs.BoolVar(&v.stats, "stats", false, "print a per-transaction breakdown table")
	sample := fs.Bool("sample", false, "emit a sample history instead of checking")
	histFlag := fs.String("history", "", "the history to check (same as the positional argument; - for stdin)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *sample {
		if fs.NArg() > 0 || *histFlag != "" {
			fmt.Fprintln(stderr, "mlacheck: -sample writes to stdout and takes no input")
			return 2
		}
		if err := emitSample(stdout); err != nil {
			fmt.Fprintln(stderr, "mlacheck:", err)
			return 1
		}
		return 0
	}

	path := *histFlag
	switch {
	case fs.NArg() > 1, fs.NArg() == 1 && path != "":
		fmt.Fprintln(stderr, "mlacheck: one input at a time: -history F or a single positional F")
		return 2
	case fs.NArg() == 1:
		path = fs.Arg(0)
	}
	var data []byte
	var err error
	if path == "" || path == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mlacheck:", err)
		return 1
	}
	name, h, err := decode(data)
	if err != nil {
		fmt.Fprintln(stderr, "mlacheck:", err)
		return 1
	}
	rep, err := history.Check(h)
	if err != nil {
		fmt.Fprintf(stderr, "mlacheck: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%-24s %s\n", name+":", rep.Summary())
	status := 0
	if rep.Witness != nil {
		fmt.Fprint(stdout, rep.Witness)
		status = 2
	}
	if v.any() {
		if st := whiteBox(h, rep, v, stdout, stderr); st != 0 {
			return st
		}
	}
	return status
}

// decode sniffs the input's shape and returns the history it holds, named
// by that shape.
func decode(data []byte) (string, *history.History, error) {
	// A spool (JSONL, possibly many boots concatenated by crash-restarts)
	// is sniffed from its header line BEFORE the single-document probe —
	// a multi-line stream is not one JSON value.
	if history.SniffSpool(data) {
		h, err := history.ReadSpool(bytes.NewReader(data))
		return "spool", h, err
	}
	var probe struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", nil, fmt.Errorf("history input is not JSON: %w", err)
	}
	if probe.Format != history.Format {
		return "", nil, fmt.Errorf("unrecognized history input (want format %q or a spool)", history.Format)
	}
	h, err := history.Decode(bytes.NewReader(data))
	return "history", h, err
}

// whiteBox runs the Theorem 2 analysis on the execution the history replays
// to, cross-checks its verdict against the black-box report, and prints the
// requested views. It returns 0 when the deciders agree (the verdict itself
// is the caller's exit status), 1 when the analysis could not run, and 3
// when they disagree.
func whiteBox(h *history.History, black *history.Report, v views, stdout, stderr io.Writer) int {
	exec, n, spec, err := h.Execution()
	if err != nil {
		fmt.Fprintln(stderr, "mlacheck:", err)
		return 1
	}
	res, err := coherent.CheckExecution(exec, n, spec)
	if err != nil {
		fmt.Fprintln(stderr, "mlacheck: theorem 2 analysis:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-24s atomic=%v correctable=%v\n", "theorem 2:", res.Atomic, res.Correctable)
	if res.Atomic != black.Atomic || res.Correctable != black.Correctable {
		fmt.Fprintf(stderr, "mlacheck: DECIDERS DISAGREE: history says atomic=%v correctable=%v, coherent says atomic=%v correctable=%v — one of the two checkers is wrong\n",
			black.Atomic, black.Correctable, res.Atomic, res.Correctable)
		return 3
	}
	if v.timeline {
		fmt.Fprintln(stdout, "timeline:")
		fmt.Fprint(stdout, viz.Timeline(exec, spec, viz.Options{Width: 48}))
	}
	if v.stats {
		txnStats(exec).Render(stdout)
	}
	if res.Correctable && (v.witness || v.tree) {
		w, ok := res.Witness()
		if !ok {
			fmt.Fprintln(stderr, "mlacheck: witness construction failed")
			return 1
		}
		if v.witness {
			fmt.Fprintln(stdout, "witness (an equivalent multilevel atomic execution):")
			for i, s := range w {
				fmt.Fprintf(stdout, "  %3d  %s[%d]:%s(%s)\n", i, s.Txn, s.Seq, s.Label, s.Entity)
			}
		}
		if v.tree {
			tr, err := nested.Build(w, n, spec)
			if err != nil {
				fmt.Fprintln(stderr, "mlacheck: action tree:", err)
				return 1
			}
			st := tr.Stats()
			fmt.Fprintf(stdout, "nested action tree: %d nodes, %d leaves, depth %d, max fanout %d\n",
				st.Nodes, st.Leaves, st.MaxDepth, st.MaxFanout)
			fmt.Fprint(stdout, tr.String())
		}
	}
	return 0
}

// txnStats builds the -stats table: per transaction, its step count,
// distinct entities, span in the total order, and own/foreign — the ratio
// of its own steps to other transactions' steps inside its span ("∞" means
// it ran contiguously, with no interleaving at all).
func txnStats(exec model.Execution) *metrics.Table {
	type agg struct {
		steps       int
		first, last int
		entities    map[model.EntityID]bool
	}
	byTxn := make(map[model.TxnID]*agg)
	for i, s := range exec {
		a := byTxn[s.Txn]
		if a == nil {
			a = &agg{first: i, entities: make(map[model.EntityID]bool)}
			byTxn[s.Txn] = a
		}
		a.steps++
		a.last = i
		a.entities[s.Entity] = true
	}
	t := metrics.NewTable("per-transaction:", "txn", "steps", "entities", "span", "own/foreign")
	for _, id := range exec.Txns() {
		a := byTxn[id]
		span := a.last - a.first + 1
		t.Row(string(id), a.steps, len(a.entities), span,
			metrics.Ratio(float64(a.steps), float64(span-a.steps)))
	}
	return t
}

// emitSample writes a correctable banking execution: two transfers
// interleaved at their phase boundaries plus a serial audit.
func emitSample(w io.Writer) error {
	params := bank.DefaultParams()
	params.Transfers = 3
	params.BankAudits = 1
	params.CreditorAudits = 0
	wl := bank.Generate(params)
	vals := make(map[model.EntityID]model.Value, len(wl.Init))
	for k, v := range wl.Init {
		vals[k] = v
	}
	e, err := model.RunSerial(wl.Programs, vals)
	if err != nil {
		return err
	}
	h, err := history.FromExecution(e, wl.Nest, wl.Spec)
	if err != nil {
		return err
	}
	return h.Encode(w)
}
