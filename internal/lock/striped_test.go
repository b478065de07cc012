package lock

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"mla/internal/model"
)

// locker is the surface shared by Striped and refTable, letting the
// equivalence test run identically against both.
type locker interface {
	Acquire(model.TxnID, model.EntityID, func(model.TxnID) int64) (Outcome, model.TxnID)
	TryAcquire(model.TxnID, model.EntityID) (bool, model.TxnID)
	HolderOf(model.EntityID) model.TxnID
	Release(model.TxnID)
	Locked() int
}

// refTable is the reference lock table: one map from entity to holder, the
// wound-wait rule written out, and a Release that scans the whole map. It
// is the oracle of TestStripedDecisionEquivalence.
type refTable map[model.EntityID]model.TxnID

func (r refTable) Acquire(t model.TxnID, x model.EntityID, prio func(model.TxnID) int64) (Outcome, model.TxnID) {
	h, locked := r[x]
	switch {
	case !locked:
		r[x] = t
		return Granted, ""
	case h == t:
		return Granted, ""
	case prio(t) < prio(h):
		return Wound, h
	}
	return Wait, h
}

func (r refTable) TryAcquire(t model.TxnID, x model.EntityID) (bool, model.TxnID) {
	out, h := r.Acquire(t, x, func(model.TxnID) int64 { return 0 })
	return out == Granted, h
}

func (r refTable) HolderOf(x model.EntityID) model.TxnID { return r[x] }

func (r refTable) Release(t model.TxnID) {
	for x, h := range r {
		if h == t {
			delete(r, x)
		}
	}
}

func (r refTable) Locked() int { return len(r) }

// Locked gives Striped the locker surface's lock count, which the table
// itself reports through Snapshot.
func (s *Striped) Locked() int { return s.Snapshot().Locked }

// TestStripedPropertyExclusiveHolder reruns the exclusive-holder property
// against the sharded manager: seeded random acquire/release sequences, with
// the holder state cross-checked against a shadow table after every op. The
// entity set is wide enough to land in several shards, so the invariant is
// exercised both per shard and across shards.
func TestStripedPropertyExclusiveHolder(t *testing.T) {
	txns := make([]model.TxnID, 6)
	for i := range txns {
		txns[i] = model.TxnID(fmt.Sprintf("t%d", i))
	}
	entities := make([]model.EntityID, 12)
	for i := range entities {
		entities[i] = model.EntityID(fmt.Sprintf("e%d", i))
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewStriped(8)
		shadow := make(map[model.EntityID]model.TxnID)
		for op := 0; op < 400; op++ {
			tx := txns[rng.Intn(len(txns))]
			if rng.Intn(5) == 0 {
				m.Release(tx)
				for x, h := range shadow {
					if h == tx {
						delete(shadow, x)
					}
				}
			} else {
				x := entities[rng.Intn(len(entities))]
				ok, holder := m.TryAcquire(tx, x)
				prev, locked := shadow[x]
				if ok {
					if locked && prev != tx {
						t.Fatalf("seed=%d op=%d: %s granted %s while %s held it", seed, op, x, tx, prev)
					}
					shadow[x] = tx
				} else {
					if !locked {
						t.Fatalf("seed=%d op=%d: free entity %s refused %s", seed, op, x, tx)
					}
					if holder != prev {
						t.Fatalf("seed=%d op=%d: reported holder %s, shadow says %s", seed, op, holder, prev)
					}
				}
			}
			holders := make(map[model.EntityID]model.TxnID)
			for _, tx := range txns {
				for _, x := range entities {
					if m.HolderOf(x) == tx {
						if other, dup := holders[x]; dup {
							t.Fatalf("seed=%d op=%d: %s held by both %s and %s", seed, op, x, other, tx)
						}
						holders[x] = tx
					}
				}
			}
			if len(holders) != len(shadow) {
				t.Fatalf("seed=%d op=%d: manager holds %d entities, shadow %d", seed, op, len(holders), len(shadow))
			}
			for x, h := range shadow {
				if holders[x] != h {
					t.Fatalf("seed=%d op=%d: %s holder %s, shadow %s", seed, op, x, holders[x], h)
				}
			}
			if m.Snapshot().Locked != len(shadow) {
				t.Fatalf("seed=%d op=%d: Locked=%d, shadow %d", seed, op, m.Snapshot().Locked, len(shadow))
			}
		}
	}
}

// TestStripedPropertyWoundOnlyStrictlyYounger reruns the wound-wait property
// against the sharded manager: Wound only when the requester is strictly
// older than the named victim, and the victim is the actual holder.
func TestStripedPropertyWoundOnlyStrictlyYounger(t *testing.T) {
	txns := make([]model.TxnID, 8)
	for i := range txns {
		txns[i] = model.TxnID(fmt.Sprintf("t%d", i))
	}
	entities := make([]model.EntityID, 9)
	for i := range entities {
		entities[i] = model.EntityID(fmt.Sprintf("e%d", i))
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prioTable := make(map[model.TxnID]int64)
		for _, tx := range txns {
			prioTable[tx] = int64(rng.Intn(4))
		}
		prio := func(tx model.TxnID) int64 { return prioTable[tx] }
		m := NewStriped(8)
		for op := 0; op < 300; op++ {
			tx := txns[rng.Intn(len(txns))]
			if rng.Intn(6) == 0 {
				m.Release(tx)
				continue
			}
			x := entities[rng.Intn(len(entities))]
			holderBefore := model.TxnID("")
			for _, cand := range txns {
				if m.HolderOf(x) == cand {
					holderBefore = cand
				}
			}
			out, victim := m.Acquire(tx, x, prio)
			switch out {
			case Granted:
				if holderBefore != "" && holderBefore != tx {
					t.Fatalf("seed=%d op=%d: granted %s to %s over holder %s", seed, op, x, tx, holderBefore)
				}
				if m.HolderOf(x) != tx {
					t.Fatalf("seed=%d op=%d: Granted but not holding", seed, op)
				}
			case Wound:
				if victim != holderBefore {
					t.Fatalf("seed=%d op=%d: wound victim %s is not the holder %s", seed, op, victim, holderBefore)
				}
				if prio(tx) >= prio(victim) {
					t.Fatalf("seed=%d op=%d: %s (prio %d) wounded non-younger %s (prio %d)",
						seed, op, tx, prio(tx), victim, prio(victim))
				}
				m.Release(victim)
				if got, _ := m.TryAcquire(tx, x); !got {
					t.Fatalf("seed=%d op=%d: retry after wounding failed", seed, op)
				}
			case Wait:
				if holderBefore == "" || holderBefore == tx {
					t.Fatalf("seed=%d op=%d: told to wait on a free/self lock", seed, op)
				}
				if prio(tx) < prio(holderBefore) {
					t.Fatalf("seed=%d op=%d: strictly older %s waited on %s", seed, op, tx, holderBefore)
				}
			}
		}
	}
}

// TestStripedDecisionEquivalence pins the claim in the package doc: on the
// same serial request sequence, a Striped table of any stripe count makes
// byte-for-byte the decisions of the map-backed reference table (refTable)
// — striping changes where state lives, never what is decided. Every
// outcome (grant/wait/wound, reported holders, victims, the entity's holder
// after the request, lock counts) is appended to a decision log per table
// and the logs are compared. Releases include non-holders (a second
// release, a transaction that never locked) and are followed by
// re-acquisition, the sequences that exercise the held-stripe index.
func TestStripedDecisionEquivalence(t *testing.T) {
	txns := make([]model.TxnID, 7)
	for i := range txns {
		txns[i] = model.TxnID(fmt.Sprintf("t%d", i))
	}
	entities := make([]model.EntityID, 16)
	for i := range entities {
		entities[i] = model.EntityID(fmt.Sprintf("acct-%d", i))
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prioTable := make(map[model.TxnID]int64)
		for i, tx := range txns {
			prioTable[tx] = int64(i)
		}
		prio := func(tx model.TxnID) int64 { return prioTable[tx] }
		mgrs := []locker{refTable{}, NewStriped(1), NewStriped(8),
			newPrioStriped(1, prioTable), newPrioStriped(8, prioTable)}
		logs := make([][]string, len(mgrs))
		for op := 0; op < 500; op++ {
			kind := rng.Intn(12)
			tx := txns[rng.Intn(len(txns))]
			x := entities[rng.Intn(len(entities))]
			for i, m := range mgrs {
				var entry string
				switch {
				case kind == 0:
					m.Release(tx)
					entry = fmt.Sprintf("release %s locked=%d", tx, m.Locked())
				case kind == 10:
					m.Release(tx)
					m.Release(tx) // now a non-holder
					out, victim := m.Acquire(tx, x, prio)
					entry = fmt.Sprintf("release twice, reacquire %s %s -> %d %s locked=%d", tx, x, out, victim, m.Locked())
				case kind == 11:
					m.Release("never-locked")
					entry = fmt.Sprintf("release stranger locked=%d", m.Locked())
				case kind <= 5:
					out, victim := m.Acquire(tx, x, prio)
					entry = fmt.Sprintf("acquire %s %s -> %d %s", tx, x, out, victim)
				default:
					ok, holder := m.TryAcquire(tx, x)
					entry = fmt.Sprintf("try %s %s -> %v %s", tx, x, ok, holder)
				}
				logs[i] = append(logs[i], entry+" holder="+string(m.HolderOf(x)))
			}
		}
		for i := 1; i < len(mgrs); i++ {
			for j := range logs[0] {
				if logs[i][j] != logs[0][j] {
					t.Fatalf("seed=%d op=%d: table %d diverged from the reference:\n  reference: %s\n  striped:   %s",
						seed, j, i, logs[0][j], logs[i][j])
				}
			}
			if a, b := mgrs[0].Locked(), mgrs[i].Locked(); a != b {
				t.Fatalf("seed=%d: final Locked %d vs %d", seed, a, b)
			}
		}
		for _, m := range mgrs[1:] {
			s, ok := m.(*Striped)
			if !ok {
				s = m.(*prioStriped).Striped
			}
			for _, tx := range txns {
				s.Release(tx)
			}
			if st := s.Snapshot(); st.Entries != 0 || st.Locked != 0 {
				t.Fatalf("seed=%d: after releasing everyone, %d index entries and %d locks", seed, st.Entries, st.Locked)
			}
		}
	}
}

// prioStriped is a Striped that takes its wound-wait priorities from its
// own index, as sched.ShardedTwoPhase does: every transaction of the table
// has its priority set up front and again after each Release, the way a
// restart's Begin sets it again after an abort.
type prioStriped struct {
	*Striped
	table map[model.TxnID]int64
}

func newPrioStriped(shards int, table map[model.TxnID]int64) *prioStriped {
	p := &prioStriped{NewStriped(shards), table}
	for tx, pr := range table {
		p.SetPriority(tx, pr)
	}
	return p
}

func (p *prioStriped) Acquire(t model.TxnID, x model.EntityID, _ func(model.TxnID) int64) (Outcome, model.TxnID) {
	return p.Striped.Acquire(t, x, p.Priority)
}

func (p *prioStriped) Release(t model.TxnID) {
	p.Striped.Release(t)
	if pr, ok := p.table[t]; ok {
		p.SetPriority(t, pr)
	}
}

// TestStripedPriorityLivesUntilRelease pins the priority half of the index
// entry, with one shard and with sixteen: Priority reads what SetPriority
// wrote until Release deletes it, wound-wait decides by it, and an entry
// made by SetPriority alone, with no lock, is dropped by Release too.
func TestStripedPriorityLivesUntilRelease(t *testing.T) {
	for _, shards := range []int{1, 16} {
		s := NewStriped(shards)
		if p := s.Priority("old"); p != 0 {
			t.Fatalf("shards=%d: priority %d before SetPriority", shards, p)
		}
		s.SetPriority("old", 1)
		s.SetPriority("young", 2)
		if out, _ := s.Acquire("young", "x", s.Priority); out != Granted {
			t.Fatalf("shards=%d: young's first lock: %d", shards, out)
		}
		if out, _ := s.Acquire("old", "y", s.Priority); out != Granted {
			t.Fatalf("shards=%d: old's first lock: %d", shards, out)
		}
		if out, v := s.Acquire("old", "x", s.Priority); out != Wound || v != "young" {
			t.Fatalf("shards=%d: old requesting young's lock: %d %s, want a wound of young", shards, out, v)
		}
		if out, _ := s.Acquire("young", "y", s.Priority); out != Wait {
			t.Fatalf("shards=%d: young requesting old's lock: %d, want a wait", shards, out)
		}
		if p := s.Priority("old"); p != 1 {
			t.Fatalf("shards=%d: priority %d while holding, want 1", shards, p)
		}
		s.Release("old")
		s.Release("young")
		if p := s.Priority("old"); p != 0 {
			t.Fatalf("shards=%d: priority %d after Release", shards, p)
		}
		s.SetPriority("idle", 5)
		if st := s.Snapshot(); st.Entries != 1 || st.Locked != 0 {
			t.Fatalf("shards=%d: a priority alone: %+v, want 1 entry and no lock", shards, st)
		}
		s.Release("idle")
		if st := s.Snapshot(); st.Entries != 0 || s.Priority("idle") != 0 {
			t.Fatalf("shards=%d: Release kept the lockless entry: %+v", shards, st)
		}
	}
}

// TestStripePadding pins the cache-line padding the stripe comments promise:
// neighbouring shard (and index) mutexes must not share a 64-byte line.
func TestStripePadding(t *testing.T) {
	if n := unsafe.Sizeof(stripe{}); n != 64 {
		t.Errorf("stripe is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(indexStripe{}); n != 64 {
		t.Errorf("indexStripe is %d bytes, want 64", n)
	}
}

// TestStripedAcquireRacesRelease races Acquire against Release for the same
// transaction — the engine's stale-grant case — and checks the residue
// contract: whatever the race left, one more Release of t leaves no entity
// held by t, no locked entity, and an empty per-transaction index.
func TestStripedAcquireRacesRelease(t *testing.T) {
	s := NewStriped(8)
	entities := make([]model.EntityID, 24)
	for i := range entities {
		entities[i] = model.EntityID(fmt.Sprintf("e%d", i))
	}
	prio := func(model.TxnID) int64 { return 1 }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		tx := model.TxnID(fmt.Sprintf("w%d", w))
		wg.Add(2)
		go func() {
			defer wg.Done()
			for op := 0; op < 3000; op++ {
				s.Acquire(tx, entities[(op*7+w)%len(entities)], prio)
			}
		}()
		go func() {
			defer wg.Done()
			for op := 0; op < 3000; op++ {
				s.Release(tx)
			}
		}()
	}
	wg.Wait()
	for w := 0; w < 4; w++ {
		tx := model.TxnID(fmt.Sprintf("w%d", w))
		s.Release(tx)
		for _, x := range entities {
			if s.HolderOf(x) == tx {
				t.Fatalf("%s still holds %s after the final Release", tx, x)
			}
		}
	}
	if st := s.Snapshot(); st.Locked != 0 || st.Holders != 0 {
		t.Fatalf("non-empty final snapshot: %+v", st)
	}
	if n := s.Snapshot().Entries; n != 0 {
		t.Fatalf("per-transaction index keeps %d entries", n)
	}
}

// TestStripedIndexBoundedByConcurrency churns many distinct transaction ids
// through a window of 8 in flight, as a resident session does — each given
// its priority before its lock, as sched.ShardedTwoPhase's Begin does: the
// index holds at most the window, and nothing once the window drains.
func TestStripedIndexBoundedByConcurrency(t *testing.T) {
	const window, churn = 8, 1 << 18
	s := NewStriped(16)
	id := func(i int) model.TxnID { return model.TxnID(fmt.Sprintf("s1-t%d", i)) }
	for i := 0; i < churn+window; i++ {
		if i < churn {
			s.SetPriority(id(i), int64(i+1))
			s.TryAcquire(id(i), model.EntityID(fmt.Sprintf("x%d", i%1000)))
		}
		if i >= window {
			s.Release(id(i - window))
		}
		if i%4096 == 0 {
			if n := s.Snapshot().Entries; n > window {
				t.Fatalf("after %d ids the index holds %d entries, window %d", i, n, window)
			}
		}
	}
	if st := s.Snapshot(); st.Entries != 0 || st.Locked != 0 {
		t.Fatalf("drained: %d index entries, %d locks", st.Entries, st.Locked)
	}
}

// distinctShardEntities returns n entities that hash to n pairwise-distinct
// shards of s, so tests can construct conflicts that provably span shards.
func distinctShardEntities(t *testing.T, s *Striped, n int) []model.EntityID {
	t.Helper()
	used := make(map[*stripe]bool)
	var out []model.EntityID
	for i := 0; len(out) < n && i < 10000; i++ {
		x := model.EntityID(fmt.Sprintf("entity-%d", i))
		sh := s.shardOf(x)
		if !used[sh] {
			used[sh] = true
			out = append(out, x)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d entities in distinct shards", n)
	}
	return out
}

// TestCrossShardDeadlockWounded builds the classic wait-for cycle across
// three transactions whose locks live in three different shards — t0 holds
// e0 wants e1, t1 holds e1 wants e2, t2 holds e2 wants e0 — and checks that
// wound-wait still breaks it even though no single shard can see the cycle.
// That is the point of wound-wait under striping: deadlock freedom comes
// from the priority order (a transaction only ever waits for strictly older
// ones, so wait chains cannot close into cycles), not from any global
// wait-graph, so sharding the table loses nothing. The driver retries each
// transaction until all three finish and asserts (a) the run terminates,
// (b) at least one wound occurred, (c) every victim was strictly younger
// than its wounder, and (d) the oldest transaction was never wounded.
func TestCrossShardDeadlockWounded(t *testing.T) {
	s := NewStriped(8)
	ents := distinctShardEntities(t, s, 3)
	txns := []model.TxnID{"t-old", "t-mid", "t-young"}
	prioTable := map[model.TxnID]int64{"t-old": 0, "t-mid": 1, "t-young": 2}
	prio := func(tx model.TxnID) int64 { return prioTable[tx] }

	// wants[i] is txn i's acquisition list: its own entity, then the next
	// txn's — the cyclic hold-and-wait pattern.
	wants := [][]model.EntityID{
		{ents[0], ents[1]},
		{ents[1], ents[2]},
		{ents[2], ents[0]},
	}
	progress := make([]int, 3)
	done := make([]bool, 3)
	wounds := 0
	for round := 0; round < 100; round++ {
		alldone := true
		for i, tx := range txns {
			if done[i] {
				continue
			}
			alldone = false
		retry:
			out, victim := s.Acquire(tx, wants[i][progress[i]], prio)
			switch out {
			case Granted:
				progress[i]++
				if progress[i] == len(wants[i]) {
					done[i] = true
					s.Release(tx)
				}
			case Wound:
				wounds++
				if prio(tx) >= prio(victim) {
					t.Fatalf("%s (prio %d) wounded non-younger %s (prio %d)", tx, prio(tx), victim, prio(victim))
				}
				if victim == "t-old" {
					t.Fatalf("oldest transaction was wounded")
				}
				// Abort the victim (release its locks, restart its program),
				// then the wounder retries at once — that immediate retry is
				// the wound-wait contract; without it the victim could
				// re-grab the lock first and the pair would livelock.
				s.Release(victim)
				for j, v := range txns {
					if v == victim {
						progress[j] = 0
					}
				}
				goto retry
			case Wait:
				// Retry next round.
			}
		}
		if alldone {
			if wounds == 0 {
				t.Fatal("cycle spanning 3 shards completed without any wound — conflicts never materialized")
			}
			if s.Snapshot().Locked != 0 {
				t.Fatalf("locks leaked: %d", s.Snapshot().Locked)
			}
			return
		}
	}
	t.Fatalf("cross-shard cycle did not resolve in 100 rounds: progress=%v done=%v", progress, done)
}

// TestStripedConcurrentHammer drives the sharded manager from many
// goroutines at once — the race detector checks the locking discipline, and
// the final state must be empty once every worker has released.
func TestStripedConcurrentHammer(t *testing.T) {
	s := NewStriped(8)
	entities := make([]model.EntityID, 32)
	for i := range entities {
		entities[i] = model.EntityID(fmt.Sprintf("e%d", i))
	}
	prio := func(tx model.TxnID) int64 {
		var n int64
		fmt.Sscanf(string(tx), "w%d", &n)
		return n
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := model.TxnID(fmt.Sprintf("w%d", w))
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for op := 0; op < 2000; op++ {
				x := entities[rng.Intn(len(entities))]
				out, victim := s.Acquire(tx, x, prio)
				if out == Wound && victim == tx {
					panic("self-wound")
				}
				if rng.Intn(4) == 0 {
					s.Release(tx)
				}
				_ = s.Snapshot()
			}
			s.Release(tx)
		}(w)
	}
	wg.Wait()
	if got := s.Snapshot().Locked; got != 0 {
		t.Fatalf("locks leaked after all releases: %d", got)
	}
	if st := s.Snapshot(); st.Holders != 0 || st.Locked != 0 {
		t.Fatalf("non-empty final snapshot: %+v", st)
	}
}
