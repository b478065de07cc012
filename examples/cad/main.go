// CAD: Utopian Planning, Inc. (Section 2). Expert modifications organized
// by specialty and team run against the city plan while public-relations
// snapshots require a consistent view. The example sweeps the nest depth
// from k=2 (serializability: snapshots and mods all mutually atomic) to
// k=5 (the full trust hierarchy) under the prevention scheduler, then
// prints the Section 7 nested action tree of one multilevel atomic
// execution.
package main

import (
	"fmt"
	"log"
	"os"

	"mla/internal/cad"
	"mla/internal/coherent"
	"mla/internal/metrics"
	"mla/internal/nested"
	"mla/internal/sched"
	"mla/internal/sim"
)

func main() {
	params := cad.DefaultParams()
	params.Mods = 10
	params.Snapshots = 2
	wl := cad.Generate(params)

	table := metrics.NewTable(
		fmt.Sprintf("Utopian Planning: %d modifications, %d snapshots, %d specialties × %d teams",
			params.Mods, params.Snapshots, cad.Specialties, cad.TeamsPerSpecialty),
		"nest-depth", "throughput", "waits", "aborts", "snapshots-clean")

	for k := 2; k <= 5; k++ {
		n, spec := wl.WithDepth(k)
		c := sched.NewPreventer(n, spec)
		res, err := sim.Run(sim.DefaultConfig(), wl.Programs, c, spec, wl.Init)
		if err != nil {
			log.Fatalf("k=%d: %v", k, err)
		}
		inv := wl.Check(res.Exec, res.Final)
		if !inv.TotalsConsistent || inv.SnapshotsDirty > 0 || inv.TraceValid != nil {
			log.Fatalf("k=%d: invariants violated: %+v", k, inv)
		}
		table.Row(k, res.Throughput(), res.Control.Waits, res.Stats.Aborts, inv.SnapshotsClean)
	}
	table.Render(os.Stdout)

	// Section 7: organize a multilevel atomic execution as a nested action
	// tree. Take the k=5 run's execution, reorder it into its witness, and
	// build the tree.
	n5, spec5 := wl.WithDepth(5)
	c := sched.NewPreventer(n5, spec5)
	res, err := sim.Run(sim.DefaultConfig(), wl.Programs, c, spec5, wl.Init)
	if err != nil {
		log.Fatal(err)
	}
	chk, err := coherent.CheckExecution(res.Exec, n5, spec5)
	if err != nil {
		log.Fatal(err)
	}
	w, ok := chk.Witness()
	if !ok {
		log.Fatal("execution not correctable")
	}
	tree, err := nested.Build(w, n5, spec5)
	if err != nil {
		log.Fatal(err)
	}
	st := tree.Stats()
	fmt.Printf("\nnested action tree of the witness (Section 7): %d nodes, %d leaves, depth %d, max fanout %d\n",
		st.Nodes, st.Leaves, st.MaxDepth, st.MaxFanout)
	fmt.Println("top of the tree:")
	lines := 0
	for _, line := range splitLines(tree.String()) {
		fmt.Println(" ", line)
		lines++
		if lines >= 12 {
			fmt.Println("  ...")
			break
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}
