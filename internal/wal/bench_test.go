package wal

import (
	"strconv"
	"testing"

	"mla/internal/model"
)

// The DB's own share of a transaction on the in-memory medium: no device
// latency and no file backing, so what is measured is the logging and the
// volatile store behind it. A compacting checkpoint every 512 rounds keeps
// the in-memory log bounded.

// BenchmarkDBPerformCommit: two Performs and a Commit of one transaction.
func BenchmarkDBPerformCommit(b *testing.B) {
	db, err := Open(NewMedium(), fuzzInit())
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]model.TxnID, b.N) // a committed id cannot step again
	for i := range ids {
		ids[i] = model.TxnID("t" + strconv.Itoa(i))
	}
	inc := add(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i, id := range ids {
		if _, err := db.Perform(id, 1, "a", inc); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Perform(id, 2, "b", inc); err != nil {
			b.Fatal(err)
		}
		if err := db.Commit(id); err != nil {
			b.Fatal(err)
		}
		if i%512 == 511 {
			mustCompact(b, db)
		}
	}
}

// BenchmarkDBAbortSuffix: two interleaved transactions perform four steps,
// one AbortSuffix rolls the first back to its first step and the second
// entirely, and a second AbortSuffix finishes the first.
func BenchmarkDBAbortSuffix(b *testing.B) {
	db, err := Open(NewMedium(), fuzzInit())
	if err != nil {
		b.Fatal(err)
	}
	partial := map[model.TxnID]int{"t1": 1, "t2": 0}
	full := map[model.TxnID]int{"t1": 0}
	inc := add(1)
	perform := func(id model.TxnID, seq int, x model.EntityID) {
		if _, err := db.Perform(id, seq, x, inc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		perform("t1", 1, "a")
		perform("t2", 1, "b")
		perform("t1", 2, "b") // t1 observes t2's b
		perform("t2", 2, "c")
		if err := db.AbortSuffix(partial); err != nil {
			b.Fatal(err)
		}
		if err := db.AbortSuffix(full); err != nil {
			b.Fatal(err)
		}
		if i%512 == 511 {
			mustCompact(b, db)
		}
	}
}
