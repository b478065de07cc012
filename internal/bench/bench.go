// Package bench is the experiment harness: one runner per experiment in
// EXPERIMENTS.md (E1–E22), each regenerating the corresponding table. The
// paper (PODS 1982) is theory-only, so the experiments reproduce its formal
// claims and worked examples, and run the evaluation its Section 6 and
// Section 7 call for. cmd/mlabench prints the tables; the root-level
// bench_test.go wraps each runner in a testing.B benchmark.
package bench

import (
	"context"
	"fmt"

	"mla/internal/breakpoint"
	"mla/internal/metrics"
	"mla/internal/model"
	"mla/internal/nest"
	"mla/internal/sched"
	"mla/internal/sim"
)

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID    string
	Claim string
	Run   func(Config) (*metrics.Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "k=2 multilevel atomicity coincides with serializability (Sec 4.3)", E1Equivalence},
		{"E2", "the paper's worked examples behave as stated (Sec 4.2, 4.3, 5)", E2PaperExamples},
		{"E3", "every coherent partial order extends to a coherent total order (Lemma 1)", E3Extension},
		{"E4", "MLA rejects fewer interleavings than serializability (Sec 6)", E4CycleRate},
		{"E5", "MLA scheduling beats serializable baselines on the banking workload (Sec 1, 6)", E5Throughput},
		{"E6", "audits stay exact while transfers keep interleaving (Sec 2, [FGL])", E6Audit},
		{"E7", "nest depth buys concurrency on the CAD workload (Sec 2, 4.2)", E7NestDepth},
		{"E8", "multilevel atomic executions admit nested action trees (Sec 7)", E8ActionTrees},
		{"E9", "Theorem 2 checker cost scaling", E9CheckerScaling},
		{"E10", "ablations: closure-grade predecessor tracking is necessary", E10Ablations},
		{"E11", "commit chaining and the unit of recovery (Sec 1, 6)", E11Recovery},
		{"E12", "long sessions: large logical units, small atomicity units (Sec 1)", E12Sessions},
		{"E13", "distributed prevention under announcement staleness (Sec 6, [RSL])", E13Distributed},
		{"E14", "crash recovery on the WAL-backed store (unit of recovery, Sec 1)", E14CrashRecovery},
		{"E15", "conversations: applications serializability cannot express (Sec 7, [Ra])", E15Conversations},
		{"E16", "hot-spot contention: MLA degrades gently where 2PL serializes", E16HotSpot},
		{"E17", "engine crash tolerance under deterministic fault injection", E17EngineCrash},
		{"E18", "distributed prevention under partitions, loss, and processor crashes", E18Chaos},
		{"E19", "striped locks + group commit scale the engine's hot path", E19Perf},
		{"E20", "black-box history checker agrees with the scheduler on mixed-level runs", E20MixedHistory},
		{"E21", "resident front-end keeps the serving contract under drain and overload", E21Serve},
		{"E22", "acked commits survive SIGKILL crash-restarts with disk faults (real process)", E22CrashSoak},
	}
}

// controlByName builds a fresh control for a simulation run; the names are
// sched.ControlKind's.
func controlByName(name string, n *nest.Nest, spec breakpoint.Spec) sched.Control {
	kind, err := sched.ParseControlKind(name)
	if err != nil {
		panic("bench: " + err.Error())
	}
	c, err := sched.New(kind, n, spec)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return c
}

// runSim executes one simulation with the default configuration.
func runSim(ctx context.Context, programs []model.Program, control sched.Control, spec breakpoint.Spec, init map[model.EntityID]model.Value) (*sim.Result, error) {
	cfg := sim.DefaultConfig()
	res, err := sim.RunContext(ctx, cfg, programs, control, spec, init)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", control.Name(), err)
	}
	return res, nil
}

// simDefault and simRun expose the simulator to experiment files without
// re-importing it everywhere.
func simDefault() sim.Config { return sim.DefaultConfig() }

func simRun(ctx context.Context, cfg sim.Config, programs []model.Program, control sched.Control, spec breakpoint.Spec) (*sim.Result, error) {
	return sim.RunContext(ctx, cfg, programs, control, spec, map[model.EntityID]model.Value{})
}

func copyInit(init map[model.EntityID]model.Value) map[model.EntityID]model.Value {
	out := make(map[model.EntityID]model.Value, len(init))
	for k, v := range init {
		out[k] = v
	}
	return out
}
