package wal

// Tests of the file medium's log buffer contract (see the invariants at the
// top of file.go), the reflection-free frame encoder and the crash-atomic
// epoch bump.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mla/internal/fault"
	"mla/internal/model"
)

// segmentFrames decodes every segment in dir, oldest first, requiring each
// to be whole frames with strictly increasing LSNs across the whole log.
func segmentFrames(t *testing.T, dir string) (recs []Record, sizes []int64) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	var prev int64
	for _, name := range names { // Glob sorts; zero-padded indices sort numerically
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, rs, derr := decodeFrames(data, prev)
		if derr != nil {
			t.Fatalf("%s: %v", filepath.Base(name), derr)
		}
		if len(rs) > 0 {
			prev = rs[len(rs)-1].LSN
		}
		recs = append(recs, rs...)
		sizes = append(sizes, int64(len(data)))
	}
	return recs, sizes
}

func requirePrefix(t *testing.T, got, wrote []Record) {
	t.Helper()
	if len(got) > len(wrote) {
		t.Fatalf("%d records on disk from a log of %d", len(got), len(wrote))
	}
	for i := range got {
		if got[i].LSN != wrote[i].LSN || got[i].Sum != wrote[i].Sum {
			t.Fatalf("record %d: on disk lsn %d sum %#x, appended lsn %d sum %#x — not a prefix",
				i, got[i].LSN, got[i].Sum, wrote[i].LSN, wrote[i].Sum)
		}
	}
}

// TestFileAppendBufferedUntilSync: an append reaches no file — the segment
// does not grow until Sync, after which every frame is there and decodable.
func TestFileAppendBufferedUntilSync(t *testing.T) {
	dir := t.TempDir()
	m, db := openFileDB(t, dir, FileOptions{})
	defer m.Close()
	for i := 1; i <= 5; i++ {
		mustPerform(t, db, "t0", i, "a", 1)
	}
	if err := db.Commit("t0"); err != nil {
		t.Fatal(err)
	}
	if _, sizes := segmentFrames(t, dir); len(sizes) != 1 || sizes[0] != 0 {
		t.Fatalf("segment sizes %v before Sync, want one empty segment", sizes)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, _ := segmentFrames(t, dir)
	if len(recs) != 6 {
		t.Fatalf("%d frames on disk after Sync, want 6", len(recs))
	}
	requirePrefix(t, recs, m.Records())
}

// TestFileConcurrentPerformSubmit (run under -race): Performs keep filling
// the log buffer while the flusher has the other half on the device. The
// file must still hold the records in LSN order, and every id whose ack
// closed healthy must be committed after a reopen.
func TestFileConcurrentPerformSubmit(t *testing.T) {
	dir := t.TempDir()
	opts := FileOptions{SegmentBytes: 4 << 10} // rotate under load too
	m, db := openFileDB(t, dir, opts)
	p := NewPipeline(db, 0)
	const workers, each = 4, 150
	acked := make([][]model.TxnID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := model.EntityID(string(rune('a' + w%3)))
			for i := 0; i < each; i++ {
				id := model.TxnID(fmt.Sprintf("w%d-%d", w, i))
				if _, err := p.Perform(id, 1, x, add(1)); err != nil {
					t.Error(err)
					return
				}
				<-p.Submit([]model.TxnID{id})
				if err := p.Err(); err != nil {
					t.Error(err)
					return
				}
				acked[w] = append(acked[w], id)
			}
		}(w)
	}
	wg.Wait()
	p.Close()
	wrote := m.Records()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	recs, sizes := segmentFrames(t, dir)
	if len(sizes) < 2 {
		t.Fatalf("%d segments, wanted rotation under load", len(sizes))
	}
	if len(recs) != len(wrote) {
		t.Fatalf("%d records on disk, %d appended", len(recs), len(wrote))
	}
	requirePrefix(t, recs, wrote)
	m2, db2 := openFileDB(t, dir, opts)
	defer m2.Close()
	if tb := m2.Recovery().TornBytes; tb != 0 {
		t.Fatalf("clean close left %d torn bytes", tb)
	}
	for w := range acked {
		if len(acked[w]) != each {
			t.Fatalf("worker %d acked %d of %d", w, len(acked[w]), each)
		}
		for _, id := range acked[w] {
			if !db2.Committed(id) {
				t.Fatalf("%s was acked but is not committed after reopen", id)
			}
		}
	}
}

// TestFileShortWriteInsideChunk: a persistent short-write fault cuts a
// multi-frame chunk at an arbitrary byte. The flush reports ErrDegraded, and
// a reopen finds a prefix of whole frames — never a frame out of order,
// never a gap.
func TestFileShortWriteInsideChunk(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(fault.Plan{Seed: 3, DiskShortWriteRate: 1})
	m, db := openFileDB(t, dir, FileOptions{Faults: inj})
	for i := 1; i <= 20; i++ {
		mustPerform(t, db, "t0", i, "a", 1)
	}
	if err := db.Sync(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("sync of a chunk that never lands whole: %v, want ErrDegraded", err)
	}
	wrote := m.Records()
	m.Close()

	m2, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatalf("mount after short write: %v", err)
	}
	defer m2.Close()
	got := m2.Records()
	if len(got) == 0 || len(got) >= len(wrote) {
		t.Fatalf("%d of %d records survived; every try wrote a strict, non-empty prefix of the chunk", len(got), len(wrote))
	}
	requirePrefix(t, got, wrote)
	if _, err := Open(m2, fuzzInit()); err != nil {
		t.Fatalf("recovery over the surviving prefix: %v", err)
	}
}

// TestFileChunkRotatesOnFrameBoundary: one flush of a chunk several segments
// long splits it only between frames — every segment is whole frames and
// none (of more than one frame) outgrows SegmentBytes.
func TestFileChunkRotatesOnFrameBoundary(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 256
	m, db := openFileDB(t, dir, FileOptions{SegmentBytes: segBytes})
	for i := 1; i <= 20; i++ {
		mustPerform(t, db, "t0", i, "a", 1)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, sizes := segmentFrames(t, dir)
	if len(recs) != 20 {
		t.Fatalf("%d frames on disk, want 20", len(recs))
	}
	if len(sizes) < 3 {
		t.Fatalf("%d segments for ~1.4 KB at %d bytes each", len(sizes), segBytes)
	}
	for i, n := range sizes {
		if n > segBytes || n == 0 {
			t.Fatalf("segment %d of %d is %d bytes (limit %d)", i, len(sizes), n, segBytes)
		}
	}
	requirePrefix(t, recs, m.Records())
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochBumpIsCrashAtomic: the epoch is replaced by rename, so whatever a
// crash left in epoch.tmp — nothing, an empty file, half a number — the
// intact epoch file decides, the mount succeeds with the next epoch, and no
// temporary is left behind.
func TestEpochBumpIsCrashAtomic(t *testing.T) {
	for name, tmp := range map[string][]byte{"no tmp": nil, "empty tmp": {}, "half-written tmp": []byte("4")} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, epochFile), []byte("41\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if tmp != nil {
				if err := os.WriteFile(filepath.Join(dir, epochFile+".tmp"), tmp, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			m, err := OpenFile(dir, FileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if got := m.Recovery().Epoch; got != 42 {
				t.Fatalf("mounted with epoch %d, want 42", got)
			}
			if raw, _ := os.ReadFile(filepath.Join(dir, epochFile)); string(raw) != "42\n" {
				t.Fatalf("epoch file holds %q, want \"42\\n\"", raw)
			}
			if _, err := os.Stat(filepath.Join(dir, epochFile+".tmp")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("epoch.tmp left behind (stat err %v)", err)
			}
		})
	}
}

// TestAppendPayloadMatchesJSON: the reflection-free encoder is byte-identical
// to json.Marshal(Record) — the on-disk format did not change — for every
// kind of frame, including ids and snapshot keys json escapes (quotes,
// control bytes, HTML characters, non-ASCII, invalid UTF-8, U+2028/U+2029),
// Checkpoint frames with random snapshots (keys sorted as json sorts them)
// and done lists, and nil and empty ones.
func TestAppendPayloadMatchesJSON(t *testing.T) {
	check := func(r Record) {
		t.Helper()
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendPayload([]byte("prefix"), &r); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("record %+v\n encoded %s\n    json %s", r, got[len("prefix"):], want)
		}
	}
	for c := 0; c < 256; c++ { // every byte, alone and embedded
		b := byte(c)
		check(Record{LSN: 1, Kind: Update, Txn: model.TxnID([]byte{b}), Entity: model.EntityID([]byte{'e', b, 'f'})})
		check(Record{LSN: 2, Kind: Commit, Txn: "t", Group: []model.TxnID{"g", model.TxnID([]byte{b})}})
		check(Record{LSN: 3, Kind: Checkpoint, Snapshot: map[model.EntityID]model.Value{
			model.EntityID([]byte{b}): 1, model.EntityID([]byte{'k', b}): -2, "k": 3}, Done: []model.TxnID{model.TxnID([]byte{b, 'd'})}})
	}
	for _, snap := range []map[model.EntityID]model.Value{nil, {}} {
		for _, done := range [][]model.TxnID{nil, {}} {
			check(Record{LSN: 4, Kind: Checkpoint, Snapshot: snap, Done: done, Sum: 9})
		}
	}
	rng := rand.New(rand.NewSource(16))
	alphabet := []string{"a", "t17", "e3-s2-", "", "\"", "\\", "<", ">", "&", "\n", "\x00", "é", " ", "\xff", "\u2028", "\u2029", "~", "/", "\x7f", "\xe2\x80"}
	str := func() string {
		var s string
		for n := rng.Intn(4); n > 0; n-- {
			if rng.Intn(4) == 0 {
				s += string([]byte{byte(rng.Intn(256))})
			} else {
				s += alphabet[rng.Intn(len(alphabet))]
			}
		}
		return s
	}
	num := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return -rng.Int63()
		}
		return rng.Int63n(1 << uint(1+rng.Intn(62)))
	}
	for i := 0; i < 5000; i++ {
		r := Record{LSN: num(), Kind: Kind(rng.Intn(5)), Txn: model.TxnID(str()), Seq: int(num()), Entity: model.EntityID(str()),
			Before: model.Value(num()), After: model.Value(num()), Keep: int(num()), Sum: uint64(num())}
		for n := rng.Intn(4); n > 0; n-- {
			r.Group = append(r.Group, model.TxnID(str()))
		}
		if r.Kind == Checkpoint || rng.Intn(50) == 0 {
			r.Snapshot = map[model.EntityID]model.Value{}
			for n := rng.Intn(20); n > 0; n-- {
				r.Snapshot[model.EntityID(str())] = model.Value(num())
			}
			for n := rng.Intn(20); n > 0; n-- {
				r.Done = append(r.Done, model.TxnID(str()))
			}
		}
		check(r)
	}
}

// BenchmarkFileGroupCommit is the microbenchmark of the stage between the
// engine and the disk: Perform + Submit → durable ack on a file-backed
// pipeline, with one submitter (every commit pays a whole write + fsync) and
// eight (commits arriving during a sync share the next one). ns/op is
// ns/commit.
func BenchmarkFileGroupCommit(b *testing.B) {
	for _, submitters := range []int{1, 8} {
		b.Run(fmt.Sprintf("submitters=%d", submitters), func(b *testing.B) {
			m, err := OpenFile(b.TempDir(), FileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			db, err := Open(m, fuzzInit())
			if err != nil {
				b.Fatal(err)
			}
			p := NewPipeline(db, 0)
			defer p.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := s; i < b.N; i += submitters {
						id := model.TxnID(fmt.Sprintf("b%d", i))
						if _, err := p.Perform(id, 1, "a", add(1)); err != nil {
							b.Error(err)
							return
						}
						<-p.Submit([]model.TxnID{id})
					}
				}(s)
			}
			wg.Wait()
			b.StopTimer()
			if err := p.Err(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(m.Syncs())/float64(b.N), "syncs/commit")
		})
	}
}
