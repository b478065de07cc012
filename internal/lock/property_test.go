package lock

import (
	"fmt"
	"math/rand"
	"testing"

	"mla/internal/model"
)

// TestPropertyExclusiveHolder drives a one-stripe table, the serial
// controls' shape, through seeded random acquire/release sequences and
// checks the safety property after every operation: no entity ever has two
// holders. The table's holder map (HolderOf, Snapshot().Locked) is
// cross-checked against an independently maintained shadow table, so a
// desync between the holder map and the transaction records would also
// surface.
func TestPropertyExclusiveHolder(t *testing.T) {
	txns := make([]model.TxnID, 6)
	for i := range txns {
		txns[i] = model.TxnID(fmt.Sprintf("t%d", i))
	}
	entities := []model.EntityID{"x", "y", "z", "w"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewStriped(1)
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
			// Global invariant: each entity has at most one holder, every
			// held set agrees with the holder map, and the shadow matches.
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
			for _, x := range entities {
				if holders[x] != shadow[x] || m.HolderOf(x) != shadow[x] {
					t.Fatalf("seed=%d op=%d: %s holder %s (HolderOf %s), shadow %s", seed, op, x, holders[x], m.HolderOf(x), shadow[x])
				}
			}
			if m.Snapshot().Locked != len(shadow) {
				t.Fatalf("seed=%d op=%d: Locked=%d, shadow %d", seed, op, m.Snapshot().Locked, len(shadow))
			}
		}
	}
}

// TestPropertyWoundOnlyStrictlyYounger: under randomized priorities and
// conflicts, Acquire may answer Wound only when the requester is strictly
// older (smaller priority) than the named victim, and the victim is always
// the actual holder; equal-or-older holders always make the requester
// Wait. This is the wound-wait condition that makes the scheme
// deadlock-free and starvation-free.
func TestPropertyWoundOnlyStrictlyYounger(t *testing.T) {
	txns := make([]model.TxnID, 8)
	for i := range txns {
		txns[i] = model.TxnID(fmt.Sprintf("t%d", i))
	}
	entities := []model.EntityID{"a", "b", "c"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prios := make(map[model.TxnID]int64)
		for _, tx := range txns {
			// Duplicates allowed on purpose: ties must Wait, never Wound.
			prios[tx] = int64(rng.Intn(4))
		}
		prio := func(tx model.TxnID) int64 { return prios[tx] }
		m := NewStriped(1)
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
				// The caller's contract: abort the victim, then retry wins.
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
