package bench

import (
	"fmt"

	"mla/internal/coherent"
	"mla/internal/conv"
	"mla/internal/metrics"
	"mla/internal/serial"
	"mla/internal/sim"
)

// E15Conversations runs conversation transactions (Section 7's pointer to
// [Ra]) under every control. A completed conversation is cyclic in its
// information flow and therefore never conflict serializable, yet each
// conversation pair is one π(2) class and multilevel atomic: the MLA
// controls complete every conversation; the serializable baselines complete
// none (and timestamp ordering livelocks — reported as "stalled"). This is
// the strongest qualitative separation: an application class that
// serializability cannot express at all.
func E15Conversations(o Config) (*metrics.Table, error) {
	t := metrics.NewTable("E15: conversations between transactions",
		"control", "completed", "failed", "serializable-exec", "correctable", "time")
	sc := o.scale()
	p := conv.DefaultParams()
	p.Conversations = 3 * sc
	p.Seed = o.Seed
	for _, name := range []string{"prevent", "detect", "serial", "2pl", "tso"} {
		wl := conv.Generate(p)
		c := controlByName(name, wl.Nest, wl.Spec)
		cfg := sim.DefaultConfig()
		cfg.MaxTime = 400000
		res, err := sim.Run(cfg, wl.Programs, c, wl.Spec, wl.Init)
		if err != nil {
			t.Row(name, "-", "-", "-", "-", "stalled (livelock)")
			continue
		}
		out := wl.Check(res.Final)
		ok, err := coherent.Correctable(res.Exec, wl.Nest, wl.Spec)
		if err != nil {
			return nil, err
		}
		if (name == "prevent" || name == "detect") && out.Failed > 0 {
			return nil, fmt.Errorf("E15: %s failed %d conversations", name, out.Failed)
		}
		if (name == "prevent" || name == "detect") && !ok {
			return nil, fmt.Errorf("E15: %s admitted a non-correctable execution", name)
		}
		t.Row(name, out.Completed, out.Failed, serial.Serializable(res.Exec), ok, res.Time)
	}
	return t, nil
}
