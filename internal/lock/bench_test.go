package lock

import (
	"fmt"
	"sync/atomic"
	"testing"

	"mla/internal/model"
)

// BenchmarkReleaseManyHolders pins the O(held) release fix: releasing one
// transaction's handful of locks must not scale with the number of OTHER
// transactions holding locks in the table. Before the holder→entities index,
// Release walked the whole holder map, so this benchmark degraded linearly
// in the holder population.
func BenchmarkReleaseManyHolders(b *testing.B) {
	for _, holders := range []int{16, 1024, 16384} {
		b.Run(fmt.Sprintf("holders=%d", holders), func(b *testing.B) {
			m := NewStriped(1)
			for i := 0; i < holders; i++ {
				tx := model.TxnID(fmt.Sprintf("bg-%d", i))
				m.TryAcquire(tx, model.EntityID(fmt.Sprintf("bg-ent-%d", i)))
			}
			hot := model.TxnID("hot")
			ents := []model.EntityID{"h0", "h1", "h2", "h3"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, x := range ents {
					m.TryAcquire(hot, x)
				}
				m.Release(hot)
			}
		})
	}
}

// BenchmarkStripedAcquireRelease compares the sharded manager's uncontended
// acquire/release path across stripe counts; more stripes should not make
// the serial path slower, because Release visits only the entities t's
// record lists, not every stripe.
func BenchmarkStripedAcquireRelease(b *testing.B) {
	for _, shards := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := NewStriped(shards)
			tx := model.TxnID("t")
			ents := []model.EntityID{"a", "b", "c", "d"}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, x := range ents {
					s.TryAcquire(tx, x)
				}
				s.Release(tx)
			}
		})
	}
}

// BenchmarkStripedParallel measures the point of striping: disjoint-entity
// workloads from parallel goroutines contend on shard mutexes, so 8 shards
// should scale where 1 shard serializes.
func BenchmarkStripedParallel(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := NewStriped(shards)
			var ctr atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				id := ctr.Add(1)
				tx := model.TxnID(fmt.Sprintf("t%d", id))
				ents := make([]model.EntityID, 4)
				for i := range ents {
					ents[i] = model.EntityID(fmt.Sprintf("w%d-e%d", id, i))
				}
				for pb.Next() {
					for _, x := range ents {
						s.TryAcquire(tx, x)
					}
					s.Release(tx)
				}
			})
		})
	}
}
