package sched

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mla/internal/breakpoint"
	"mla/internal/model"
	"mla/internal/nest"
)

// fullyHooked implements every optional capability.
type fullyHooked struct {
	None
	ticked int64
}

func (f *fullyHooked) Tick(now int64)                               { f.ticked = now }
func (f *fullyHooked) NextWake(now int64) int64                     { return now + 7 }
func (f *fullyHooked) TakeVictims() []model.TxnID                   { return []model.TxnID{"v"} }
func (f *fullyHooked) NewPriority(_ model.TxnID, _, fr int64) int64 { return fr }
func (f *fullyHooked) AbortedTo(model.TxnID, int)                   {}
func (f *fullyHooked) Retired(model.TxnID)                          {}
func (f *fullyHooked) ReleaseAll(model.TxnID)                       {}
func (f *fullyHooked) ConcurrentSafe()                              {}

func TestCapabilitiesDiscovery(t *testing.T) {
	bare := CapabilitiesOf(NewNone())
	if bare.Tick != nil || bare.NextWake != nil || bare.TakeVictims != nil ||
		bare.NewPriority != nil || bare.AbortedTo != nil || bare.Retired != nil ||
		bare.ReleaseAll != nil || bare.Concurrent {
		t.Fatalf("None advertised capabilities it lacks: %+v", bare)
	}

	f := &fullyHooked{}
	caps := CapabilitiesOf(f)
	if caps.Tick == nil || caps.NextWake == nil || caps.TakeVictims == nil ||
		caps.NewPriority == nil || caps.AbortedTo == nil || caps.Retired == nil ||
		caps.ReleaseAll == nil || !caps.Concurrent {
		t.Fatalf("full control missing capabilities: %+v", caps)
	}
	// The hooks are bound to the control, not copies of it.
	caps.Tick(42)
	if f.ticked != 42 {
		t.Fatal("Tick hook not bound to the receiver")
	}
	if caps.NextWake(10) != 17 {
		t.Fatal("NextWake hook misbound")
	}
	// The legacy interfaces stay satisfied — compatibility contract.
	var _ Ticker = f
	var _ Waker = f
	var _ AsyncAborter = f
	var _ RestartPrioritizer = f
	var _ PartialAborter = f
	var _ Retirer = f
	var _ Releaser = f
	var _ Concurrent = f
}

// capabilityNames lists the hooks caps declares, in Capabilities' field
// order.
func capabilityNames(caps Capabilities) []string {
	var out []string
	for _, c := range []struct {
		name string
		has  bool
	}{
		{"Tick", caps.Tick != nil}, {"NextWake", caps.NextWake != nil}, {"TakeVictims", caps.TakeVictims != nil},
		{"NewPriority", caps.NewPriority != nil}, {"AbortedTo", caps.AbortedTo != nil}, {"Retired", caps.Retired != nil},
		{"ReleaseAll", caps.ReleaseAll != nil}, {"DeadlineAborted", caps.DeadlineAborted != nil},
		{"Concurrent", caps.Concurrent}, {"QuiescentSteps", caps.QuiescentSteps},
	} {
		if c.has {
			out = append(out, c.name)
		}
	}
	return out
}

// TestControlKindRoundTrip builds every kind through New: its name must
// round-trip, and its capabilities must be the ones harnesses have always
// discovered on it (a decorator in benchmark/ must declare the same set).
func TestControlKindRoundTrip(t *testing.T) {
	n := nest.New(2)
	spec := breakpoint.Func{Levels: 2, Fn: func(model.TxnID, []model.Step) int { return 2 }}
	closure := "AbortedTo Retired DeadlineAborted"
	wantCaps := map[ControlKind]string{
		KindNone:            "DeadlineAborted",
		KindSerial:          "DeadlineAborted",
		KindTwoPhase:        "DeadlineAborted",
		KindShardedTwoPhase: "ReleaseAll DeadlineAborted Concurrent QuiescentSteps",
		KindTimestamp:       "NewPriority DeadlineAborted",
		KindPrevent:         closure,
		KindPreventDirect:   closure,
		KindDetect:          closure,
	}
	for k := KindNone; k <= KindDetect; k++ {
		parsed, err := ParseControlKind(k.String())
		if err != nil || parsed != k {
			t.Fatalf("round trip %v: parsed %v err %v", k, parsed, err)
		}
		c, err := New(k, n, spec)
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		if c.Name() != k.String() {
			t.Fatalf("New(%v).Name() = %q", k, c.Name())
		}
		if got := strings.Join(capabilityNames(CapabilitiesOf(c)), " "); got != wantCaps[k] {
			t.Fatalf("New(%v) declares %q, want %q", k, got, wantCaps[k])
		}
	}
	if _, err := ParseControlKind("bogus"); err == nil {
		t.Fatal("bogus kind parsed")
	}
	if _, err := New(KindPrevent, nil, nil); err == nil {
		t.Fatal("prevent without nest/spec must fail")
	}
}

func TestShardedTwoPhaseWoundWait(t *testing.T) {
	stp := NewShardedTwoPhase(8)
	stp.Begin("old", 1)
	stp.Begin("young", 9)
	if d := stp.Request("young", 1, "x"); d.Kind != Grant {
		t.Fatalf("free lock: %v", d.Kind)
	}
	// Older requester wounds the younger holder.
	d := stp.Request("old", 1, "x")
	if d.Kind != Abort || len(d.Victims) != 1 || d.Victims[0] != "young" {
		t.Fatalf("wound decision = %+v", d)
	}
	stp.Aborted(d.Victims)
	if d := stp.Request("old", 1, "x"); d.Kind != Grant {
		t.Fatalf("post-wound retry: %v", d.Kind)
	}
	// Younger requester waits for the older holder.
	stp.Begin("young2", 8)
	if d := stp.Request("young2", 1, "x"); d.Kind != Wait {
		t.Fatalf("younger vs older: %v", d.Kind)
	}
	stp.Finished("old")
	if d := stp.Request("young2", 1, "x"); d.Kind != Grant {
		t.Fatalf("after release: %v", d.Kind)
	}
	st := stp.Stats()
	if *st != (Stats{Waits: 1, Wounds: 1}) {
		t.Fatalf("stats = %+v", st)
	}
	// The Stats pointer is a frozen fold, per the doc contract.
	before := *st
	stp.Begin("young3", 9)
	if d := stp.Request("young3", 1, "x"); d.Kind != Wait {
		t.Fatalf("younger vs young2: %v", d.Kind)
	}
	if *st != before {
		t.Fatal("ShardedTwoPhase.Stats must return a snapshot")
	}
	if w := stp.Stats().Waits; w != 2 {
		t.Fatalf("waits = %d after the second Wait decision", w)
	}
}

// TestShardedTwoPhaseConcurrent hammers the control from parallel
// goroutines; the race detector validates the locking discipline, the
// final lock table must be empty, and the atomic counters must hold every
// Wait and wound decision handed out.
func TestShardedTwoPhaseConcurrent(t *testing.T) {
	stp := NewShardedTwoPhase(8)
	var waits, wounds atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := model.TxnID(fmt.Sprintf("t%d", w))
			stp.Begin(id, int64(w+1))
			for op := 0; op < 500; op++ {
				x := model.EntityID(fmt.Sprintf("e%d", (w*7+op)%16))
				switch d := stp.Request(id, op, x); d.Kind {
				case Wait:
					waits.Add(1)
				case Abort:
					wounds.Add(1)
					stp.Aborted(d.Victims)
					for _, v := range d.Victims {
						stp.Begin(v, int64(len(d.Victims)+op)) // victim restarts
					}
				}
			}
			stp.Finished(id)
		}(w)
	}
	wg.Wait()
	if got := stp.LockSnapshot(); got.Locked != 0 {
		t.Fatalf("locks leaked: %+v", got)
	}
	if st := stp.Stats(); st.Waits != int(waits.Load()) || st.Wounds != int(wounds.Load()) {
		t.Fatalf("stats = %+v; decided %d waits and %d wounds", st, waits.Load(), wounds.Load())
	}
}
