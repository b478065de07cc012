package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"mla/internal/model"
	"mla/internal/sched"
)

// BenchmarkSessionSubmit measures the engine stage alone: a resident Session
// under sched.ShardedTwoPhase(16) over a 4,096-entity volatile store, fed
// pooled 2-step increments whose ids are built before the timer starts.
// "serial" submits from one goroutine, so ns/op is the bookkeeping one
// transaction pays in its engine-mutex sections, the lock table, the ledger
// and the store; "parallel" submits from GOMAXPROCS goroutines through
// b.RunParallel and adds the contention on the engine mutex. Run it with
// -benchmem: the steady state allocates nothing.
func BenchmarkSessionSubmit(b *testing.B) {
	const entities, ring = 4096, 1024
	ents := make([]model.EntityID, entities)
	init := make(map[model.EntityID]model.Value, entities)
	for i := range ents {
		ents[i] = model.EntityID(fmt.Sprintf("x%04d", i))
		init[ents[i]] = 0
	}
	// ids returns a ring of ids for one submitting goroutine: a retired id
	// is free for reuse, and each goroutine has its own.
	ids := func(prefix string) []model.TxnID {
		out := make([]model.TxnID, ring)
		for i := range out {
			out[i] = model.TxnID(fmt.Sprintf("%s%d", prefix, i))
		}
		return out
	}
	submit := func(b *testing.B, s *Session, p *pooledInc) {
		out, err := s.Submit(context.Background(), p, SubmitOpts{})
		if err != nil || !out.Committed {
			b.Fatalf("%s: %+v, %v", p.id, out, err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		s := NewSession(Config{Seed: 1}, sched.NewShardedTwoPhase(16), nil, NewVolatileStore(init))
		defer s.Close()
		own, p := ids("s"), &pooledInc{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := 2 * i % (entities - 1)
			p.id, p.ents = own[i%ring], ents[lo:lo+2]
			submit(b, s, p)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		s := NewSession(Config{Seed: 1}, sched.NewShardedTwoPhase(16), nil, NewVolatileStore(init))
		defer s.Close()
		rings := make([][]model.TxnID, runtime.GOMAXPROCS(0))
		for w := range rings {
			rings[w] = ids(fmt.Sprintf("w%d-", w))
		}
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := int(next.Add(1) - 1)
			own, p := rings[w%len(rings)], &pooledInc{}
			for i := 0; pb.Next(); i++ {
				lo := (2*i + w*entities/len(rings)) % (entities - 1)
				p.id, p.ents = own[i%ring], ents[lo:lo+2]
				submit(b, s, p)
			}
		})
	})
}
