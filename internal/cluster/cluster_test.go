package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"mla/internal/fault"
	"mla/internal/model"
	mnet "mla/internal/net"
)

// fakeHost is a control reduced to the facts the kit asks for. Probes are
// routed to the wait record, like internal/shard.
type fakeHost struct {
	kit       *Kit
	epoch     map[model.TxnID]int
	prio      map[model.TxnID]int64
	home      map[model.TxnID]int
	done      map[model.TxnID]bool
	deadlocks int
	log       []string
}

func newFake(procs int, delay int64, plan *fault.Plan) *fakeHost {
	h := &fakeHost{
		epoch: map[model.TxnID]int{},
		prio:  map[model.TxnID]int64{},
		home:  map[model.TxnID]int{},
		done:  map[model.TxnID]bool{},
	}
	var inj *fault.Injector
	if plan != nil {
		inj = fault.New(*plan)
	}
	h.kit = New(procs, delay, inj, nil, Host{
		Epoch:   func(t model.TxnID) int { return h.epoch[t] },
		Prio:    func(t model.TxnID) (int64, bool) { pr, ok := h.prio[t]; return pr, ok },
		Home:    func(t model.TxnID) (int, bool) { q, ok := h.home[t]; return q, ok },
		ProbeTo: func(t model.TxnID) (int, bool) { return h.kit.WaitSite(t) },
		Done:    func(t model.TxnID) bool { return h.done[t] },
		Crash:   func(q int) { h.log = append(h.log, fmt.Sprint("crash ", q)); h.kit.Crash(q) },
		Rejoin:  func(q int) { h.log = append(h.log, fmt.Sprint("rejoin ", q)); h.kit.Rejoin(q) },
		Deliver: func(m mnet.Message) {
			if !h.kit.Up(m.To) {
				return
			}
			h.kit.Heard(m.To, m.From)
			if m.Kind == mnet.Probe {
				h.deadlocks += h.kit.OnProbe(m)
			}
		},
	})
	return h
}

func (h *fakeHost) begin(t model.TxnID, prio int64, home int) {
	h.epoch[t]++
	h.prio[t] = prio
	h.home[t] = home
}

func TestTimersDeriveFromDelay(t *testing.T) {
	want := Timers{HeartbeatEvery: 20, SuspectAfter: 65, Grace: 130, RetransmitEvery: 30, ProbeAfter: 30, ProbeEvery: 30}
	if got := timersFor(5); got != want {
		t.Errorf("timersFor(5) = %+v, want %+v", got, want)
	}
	// A live peer's heartbeat must arrive before it is suspected.
	for _, d := range []int64{0, 5, 100, 1000} {
		if tm := timersFor(d); tm.SuspectAfter <= d+tm.HeartbeatEvery {
			t.Errorf("delay %d: SuspectAfter %d would flap live peers", d, tm.SuspectAfter)
		}
	}
}

func TestBackoffDoublesToCap(t *testing.T) {
	const every = 30
	var b Backoff
	now := int64(100)
	for round, mult := range []int64{1, 2, 4, 8, 16, 16, 16} {
		if b.Tries != round {
			t.Fatalf("round %d: Tries = %d", round, b.Tries)
		}
		b.Sent(now, every)
		if got := b.NextSend - now; got != mult*every {
			t.Errorf("round %d: next send in %d, want %d×%d", round, got, mult, every)
		}
		now = b.NextSend
	}
	b.Rearm(now)
	if b.Tries != 0 || b.NextSend != now {
		t.Errorf("Rearm: %+v, want a fresh schedule due at %d", b, now)
	}
	b.Sent(now, every)
	if b.NextSend != now+every {
		t.Errorf("first round after Rearm: next send in %d, want %d", b.NextSend-now, every)
	}
}

func TestDetector(t *testing.T) {
	h := newFake(3, 5, nil)
	k := h.kit
	silent := k.Timers().SuspectAfter
	// Node 2 falls silent at time 0; 0 and 1 keep exchanging heartbeats.
	k.Bus().Partition("cut", []int{0, 1}, []int{2})
	steps := []struct {
		now     int64
		suspect bool
	}{{0, false}, {silent - 1, false}, {silent, false}, {silent + 1, true}, {silent + 40, true}}
	for _, st := range steps {
		k.Advance(st.now)
		k.Heartbeats()
		if got := k.Suspects(0, 2); got != st.suspect {
			t.Errorf("t=%d: node 0 suspects silent node 2 = %v, want %v", st.now, got, st.suspect)
		}
		if k.Suspects(0, 1) {
			t.Errorf("t=%d: node 0 suspects node 1, which it hears from", st.now)
		}
		if got := k.Unreachable(0, 2); got != st.suspect {
			t.Errorf("t=%d: Unreachable(0, 2) = %v, want %v", st.now, got, st.suspect)
		}
	}
	// Any message clears the suspicion and says it was there — once.
	if !k.Heard(0, 2) {
		t.Error("first contact after suspicion not reported")
	}
	if k.Suspects(0, 2) || k.Heard(0, 2) {
		t.Error("suspicion survived first contact")
	}
	// A crashed node is unreachable without being suspected yet, and a
	// rejoin starts its own detector from scratch: it suspects nobody until
	// a full SuspectAfter of silence after the rejoin.
	now := silent + 50
	k.Advance(now)
	k.Crash(1)
	if !k.Unreachable(0, 1) || k.Suspects(0, 1) {
		t.Error("crashed node 1: want unreachable from 0, not yet suspected")
	}
	now += 500
	k.Advance(now)
	k.Rejoin(1)
	k.Bus().Partition("cut", []int{0}, []int{1}, []int{2})
	for _, st := range []struct {
		at      int64
		suspect bool
	}{{now, false}, {now + silent, false}, {now + silent + 1, true}} {
		k.Advance(st.at)
		k.Heartbeats()
		if got := k.Suspects(1, 0); got != st.suspect {
			t.Errorf("t=rejoin+%d: rejoined node suspects 0 = %v, want %v", st.at-now, got, st.suspect)
		}
	}
}

// ring blocks t1 at node 0 on t2, t2 at node 1 on t3, t3 at node 2 on t1.
func ring(h *fakeHost, prios [3]int64) {
	ts := []model.TxnID{"t1", "t2", "t3"}
	for i, t := range ts {
		h.begin(t, prios[i], i)
	}
	for i, t := range ts {
		h.kit.SetWait(i, t, "x").Blockers = map[model.TxnID]bool{ts[(i+1)%3]: true}
	}
}

func TestProbeChaseRing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prios  [3]int64
		victim model.TxnID
	}{
		{"highest prio", [3]int64{1, 9, 3}, "t2"},
		{"tie to larger ID", [3]int64{7, 7, 2}, "t2"},
		{"all tied", [3]int64{4, 4, 4}, "t3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newFake(3, 5, nil)
			k := h.kit
			k.Advance(0)
			ring(h, tc.prios)
			if v, ok := k.LocalVictim(0, "t1"); ok {
				t.Fatalf("local check saw a cycle (%s) that spans nodes", v)
			}
			if n := k.ProbeSweep(); n != 0 || k.Bus().Stats().Sent != 0 {
				t.Fatal("probes started before ProbeAfter")
			}
			var victims []model.TxnID
			for now := int64(1); now <= 200 && len(victims) == 0; now++ {
				k.Advance(now)
				h.deadlocks += k.ProbeSweep()
				victims = k.TakeVictims()
			}
			if len(victims) != 1 || victims[0] != tc.victim {
				t.Fatalf("victims = %v, want [%s]", victims, tc.victim)
			}
			// Three chases close the same cycle; it is counted once.
			for end := k.Now() + 20; k.Now() < end; {
				k.Advance(k.Now() + 1)
			}
			if h.deadlocks != 1 {
				t.Errorf("deadlocks counted = %d, want 1", h.deadlocks)
			}
		})
	}
}

func TestProbeHopFencesAndDedups(t *testing.T) {
	h := newFake(3, 5, nil)
	k := h.kit
	k.Advance(0)
	ring(h, [3]int64{1, 2, 3})
	hop := func() mnet.Message {
		return mnet.Message{
			Kind: mnet.Probe, From: 0, To: 1,
			Txn: "t2", Epoch: h.epoch["t2"], Init: "t1", InitEpoch: h.epoch["t1"],
			Victim: "t1", VictimPrio: 1,
		}
	}
	forwarded := func(m mnet.Message) bool {
		before := k.Bus().Stats().Sent
		k.OnProbe(m)
		return k.Bus().Stats().Sent > before
	}
	stale := hop()
	stale.Epoch--
	if forwarded(stale) {
		t.Error("hop about a dead incarnation of the target was forwarded")
	}
	stale = hop()
	stale.InitEpoch--
	if forwarded(stale) {
		t.Error("hop for a dead incarnation of the initiator was forwarded")
	}
	if !forwarded(hop()) {
		t.Fatal("live hop not forwarded along t2's edge")
	}
	k.Advance(k.Timers().ProbeEvery - 1)
	if forwarded(hop()) {
		t.Error("second probe for the same (initiator, target) inside ProbeEvery was not deduped")
	}
	k.Advance(k.Timers().ProbeEvery)
	if !forwarded(hop()) {
		t.Error("probe after the ProbeEvery window was still deduped")
	}
	// A target that is not blocked at the receiving node ends the chase.
	k.ClearWait("t2")
	k.Advance(3 * k.Timers().ProbeEvery)
	if forwarded(hop()) {
		t.Error("hop forwarded although the target is not waiting")
	}
}

func TestGraceAbortsCutOffWaiter(t *testing.T) {
	h := newFake(2, 5, nil)
	k := h.kit
	k.Advance(0)
	h.begin("w", 2, 0)
	h.begin("b", 1, 1)
	k.SetWait(0, "w", "x").Blockers = map[model.TxnID]bool{"b": true}
	k.Strand("s", 1) // never began: stranding expires without a victim
	k.Crash(1)
	var aborts int
	var at int64
	for now := int64(1); now <= 400 && aborts < 2; now++ {
		k.Advance(now)
		k.Heartbeats()
		if n := k.GraceSweep(); n > 0 {
			aborts, at = aborts+n, now
		}
	}
	// The stranded request ages from 0; the waiter from the first sweep
	// that saw its blocker's home down.
	if aborts != 2 || at != k.Timers().Grace+2 {
		t.Errorf("%d grace aborts, the last at t=%d; want 2, the last at t=%d", aborts, at, k.Timers().Grace+2)
	}
	if got := k.TakeVictims(); !reflect.DeepEqual(got, []model.TxnID{"w"}) {
		t.Errorf("victims = %v, want [w]", got)
	}
	if k.Stranded("s") {
		t.Error("expired stranding record not dropped")
	}
}

func TestChaosSchedule(t *testing.T) {
	plan := fault.Plan{
		Partitions: []fault.Partition{
			{Name: "p", At: 10, Heal: 30},                 // default split of 5: {0,1,2} | {3,4}
			{Name: "p", At: 10, Sides: [][]int{{0}, {1}}}, // same name, same instant, never heals
			{Name: "late", At: 20, Heal: 25, Sides: [][]int{{2}, {1}}},
		},
		ProcCrashes: []fault.ProcCrash{
			{Proc: 7, At: 10, Rejoin: 30}, // 7 % 5 = node 2
			{Proc: 1, At: 10},
		},
	}
	h := newFake(5, 5, &plan)
	k := h.kit
	var ats []int64
	for _, ev := range k.chaos {
		ats = append(ats, ev.at)
	}
	if want := []int64{10, 10, 10, 10, 20, 25, 30, 30}; !reflect.DeepEqual(ats, want) {
		t.Fatalf("event times %v, want %v", ats, want)
	}
	if k.NextWake() != 10 {
		t.Errorf("NextWake = %d, want the first chaos event at 10", k.NextWake())
	}
	k.Advance(9)
	if k.Bus().Partitioned(0, 3) || len(h.log) != 0 {
		t.Fatal("chaos applied early")
	}
	k.Advance(10)
	bus := k.Bus()
	if !bus.Partitioned(0, 3) || !bus.Partitioned(2, 4) || bus.Partitioned(0, 2) || bus.Partitioned(3, 4) {
		t.Error("default split is not {0,1,2} | {3,4}")
	}
	if !bus.Partitioned(0, 1) {
		t.Error("explicit sides {0} | {1} not applied")
	}
	// Equal times keep plan order: partitions, then crashes as listed.
	if want := []string{"crash 2", "crash 1"}; !reflect.DeepEqual(h.log, want) {
		t.Errorf("crash order %v, want %v", h.log, want)
	}
	k.Advance(30)
	if bus.Partitioned(0, 3) {
		t.Error("partition 0 did not heal")
	}
	if !bus.Partitioned(0, 1) {
		t.Error("healing partition 0 removed the same-named partition 1")
	}
	if want := []string{"crash 2", "crash 1", "rejoin 2"}; !reflect.DeepEqual(h.log, want) {
		t.Errorf("crash log %v, want %v", h.log, want)
	}
	if k.Up(1) || !k.Up(2) {
		t.Error("want node 1 down for good and node 2 rejoined")
	}
}

// TestChaosScheduleKeysByIndex: same-named partitions 26 entries apart used
// to share a bus key, so the earlier one's heal lifted the later one.
func TestChaosScheduleKeysByIndex(t *testing.T) {
	var plan fault.Plan
	for i := 0; i < 28; i++ {
		part := fault.Partition{Name: "p", At: 1, Sides: [][]int{{2}, {3}}}
		switch i {
		case 1:
			part = fault.Partition{Name: "p", At: 1, Heal: 5, Sides: [][]int{{0}, {1}}}
		case 27:
			part = fault.Partition{Name: "p", At: 2, Sides: [][]int{{0}, {1}}}
		}
		plan.Partitions = append(plan.Partitions, part)
	}
	k := newFake(4, 5, &plan).kit
	k.Advance(5)
	if !k.Bus().Partitioned(0, 1) {
		t.Error("healing partition 1 lifted partition 27")
	}
}

// Suspects reports whether node q's detector currently suspects peer.
func (k *Kit) Suspects(q, peer int) bool { return k.nodes[q].suspected[peer] }
