package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mla/internal/fault"
	"mla/internal/model"
)

func openFileDB(t *testing.T, dir string, o FileOptions) (*Medium, *DB) {
	t.Helper()
	m, err := OpenFile(dir, o)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	db, err := Open(m, fuzzInit())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m, db
}

// lastSegment returns the path of the highest-indexed segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	last := names[0]
	for _, n := range names[1:] {
		if n > last {
			last = n
		}
	}
	return last
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

// TestFileRoundTrip: committed work persists across a close/reopen; the
// epoch bumps on every mount; losers are rolled back by recovery.
func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, db := openFileDB(t, dir, FileOptions{})
	if got := m.Recovery().Epoch; got != 1 {
		t.Fatalf("first mount epoch = %d, want 1", got)
	}

	mustPerform := func(id model.TxnID, seq int, x model.EntityID, delta model.Value) {
		t.Helper()
		if _, err := db.Perform(id, seq, x, func(v model.Value) (model.Value, string) {
			return v + delta, "add"
		}); err != nil {
			t.Fatalf("perform: %v", err)
		}
	}
	mustPerform("t0", 1, "a", 5)
	mustPerform("t1", 1, "b", 7)
	mustPerform("t2", 1, "c", 100) // loser: never commits
	if err := db.CommitGroup([]model.TxnID{"t0", "t1"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, db2 := openFileDB(t, dir, FileOptions{})
	if got := m2.Recovery().Epoch; got != 2 {
		t.Fatalf("second mount epoch = %d, want 2", got)
	}
	want := map[model.EntityID]model.Value{"a": 15, "b": 27, "c": -5}
	if got := db2.Values(); !sameValues(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for _, id := range []model.TxnID{"t0", "t1"} {
		if !db2.Committed(id) {
			t.Fatalf("%s lost its durable commit across restart", id)
		}
	}
	if db2.Committed("t2") {
		t.Fatal("loser t2 reported committed")
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileTornTail: a partial trailing frame (the write the process died
// inside) is truncated away, the surviving prefix recovers, and the repair
// is idempotent — a second mount finds nothing torn.
func TestFileTornTail(t *testing.T) {
	dir := t.TempDir()
	m, db := openFileDB(t, dir, FileOptions{})
	for i := 1; i <= 5; i++ {
		if _, err := db.Perform("t0", i, "a", func(v model.Value) (model.Value, string) {
			return v + 1, "inc"
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit("t0"); err != nil {
		t.Fatal(err)
	}
	recs := m.Records()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear mid-frame: cut the commit record's frame in half.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	good, _, derr := decodeFrames(data, 0)
	if derr != nil {
		t.Fatalf("clean log did not decode: %v", derr)
	}
	if good != int64(len(data)) {
		t.Fatalf("clean log has %d undecoded bytes", int64(len(data))-good)
	}
	// Find the offset of the last frame and cut inside it.
	prevGood, _, _ := decodeFrames(data[:good-1], 0)
	cut := prevGood + (good-prevGood)/2
	if err := os.Truncate(seg, cut); err != nil {
		t.Fatal(err)
	}

	m2, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatalf("mount after torn tail: %v", err)
	}
	info := m2.Recovery()
	if info.TornBytes != cut-prevGood {
		t.Fatalf("TornBytes = %d, want %d", info.TornBytes, cut-prevGood)
	}
	if info.Records != len(recs)-1 {
		t.Fatalf("recovered %d records, want %d (commit frame torn off)", info.Records, len(recs)-1)
	}
	db2, err := Open(m2, fuzzInit())
	if err != nil {
		t.Fatal(err)
	}
	// The commit was torn away: t0 is a loser, its updates undone.
	if db2.Committed("t0") {
		t.Fatal("t0 committed despite torn commit record")
	}
	if got := db2.Get("a"); got != 10 {
		t.Fatalf("a = %d after undo, want 10", got)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// Idempotent repair: the next mount sees a clean log.
	m3, err := OpenFile(dir, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tb := m3.Recovery().TornBytes; tb != 0 {
		t.Fatalf("second mount still torn: %d bytes", tb)
	}
	if _, err := Open(m3, fuzzInit()); err != nil {
		t.Fatal(err)
	}
	m3.Close()
}

// TestFileMidLogCorruption: an undecodable frame in a non-final segment is
// corruption, not a torn tail — the mount must fail loudly.
func TestFileMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation.
	m, db := openFileDB(t, dir, FileOptions{SegmentBytes: 128})
	for i := 1; i <= 20; i++ {
		if _, err := db.Perform("t0", i, "a", func(v model.Value) (model.Value, string) {
			return v + 1, "inc"
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countSegments(t, dir); n < 2 {
		t.Fatalf("wanted multiple segments, got %d", n)
	}

	// Flip a payload byte in the FIRST segment.
	names, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	first := names[0]
	for _, n := range names[1:] {
		if n < first {
			first = n
		}
	}
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[6] ^= 0x40
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenFile(dir, FileOptions{SegmentBytes: 128}); err == nil {
		t.Fatal("mount accepted mid-log corruption")
	}
}

// TestFileCheckpointCompact: compaction drops every segment behind the
// checkpoint, the committed set survives in the archive, and the recovery
// replay distance restarts from the checkpoint.
func TestFileCheckpointCompact(t *testing.T) {
	dir := t.TempDir()
	m, db := openFileDB(t, dir, FileOptions{SegmentBytes: 256})
	for i := 0; i < 10; i++ {
		id := model.TxnID("t" + string(rune('0'+i)))
		if _, err := db.Perform(id, 1, "a", func(v model.Value) (model.Value, string) {
			return v + 1, "inc"
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Commit(id); err != nil {
			t.Fatal(err)
		}
	}
	if db.RecordsSinceCheckpoint() != 20 {
		t.Fatalf("RecordsSinceCheckpoint = %d, want 20", db.RecordsSinceCheckpoint())
	}
	if err := db.CheckpointCompact(); err != nil {
		t.Fatal(err)
	}
	if db.RecordsSinceCheckpoint() != 0 {
		t.Fatalf("RecordsSinceCheckpoint = %d after compaction, want 0", db.RecordsSinceCheckpoint())
	}
	if n := countSegments(t, dir); n != 1 {
		t.Fatalf("%d segments after compaction, want 1", n)
	}
	if n := m.Len(); n != 0 {
		t.Fatalf("%d cached records after compaction, want 0", n)
	}
	// Post-checkpoint work.
	if _, err := db.Perform("u0", 1, "b", func(v model.Value) (model.Value, string) {
		return v * 2, "dbl"
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit("u0"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, db2 := openFileDB(t, dir, FileOptions{SegmentBytes: 256})
	// Replay is bounded by the checkpoint: only the 2 post-checkpoint
	// records, not the 20 compacted ones.
	if sc := m2.Recovery().SinceCheckpoint; sc != 2 {
		t.Fatalf("SinceCheckpoint = %d after restart, want 2", sc)
	}
	want := map[model.EntityID]model.Value{"a": 20, "b": 40, "c": -5}
	if got := db2.Values(); !sameValues(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	// The compacted prefix's commits survived via the archive.
	for i := 0; i < 10; i++ {
		id := model.TxnID("t" + string(rune('0'+i)))
		if !db2.Committed(id) {
			t.Fatalf("%s lost its commit across compaction + restart", id)
		}
	}
	m2.Close()
}

// TestFileCheckpointRequiresQuiescence mirrors the in-memory rule for the
// compacting variant.
func TestFileCheckpointRequiresQuiescence(t *testing.T) {
	dir := t.TempDir()
	m, db := openFileDB(t, dir, FileOptions{})
	defer m.Close()
	if _, err := db.Perform("t0", 1, "a", func(v model.Value) (model.Value, string) {
		return v + 1, "inc"
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckpointCompact(); err == nil {
		t.Fatal("compacting checkpoint allowed with a live transaction")
	}
}

// TestFileDiskFaultRetry: transient write, short-write, and fsync faults at
// substantial rates are absorbed by the retry loop — every append lands,
// nothing degrades, and a restart recovers the full state.
func TestFileDiskFaultRetry(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(fault.Plan{
		Seed:               42,
		DiskWriteErrRate:   0.3,
		DiskShortWriteRate: 0.3,
		DiskSyncErrRate:    0.3,
	})
	m, db := openFileDB(t, dir, FileOptions{SegmentBytes: 512, Faults: inj})
	for i := 1; i <= 30; i++ {
		if _, err := db.Perform("t0", i, "a", func(v model.Value) (model.Value, string) {
			return v + 1, "inc"
		}); err != nil {
			t.Fatalf("perform %d under transient faults: %v", i, err)
		}
	}
	if err := db.Commit("t0"); err != nil {
		t.Fatalf("commit under transient faults: %v", err)
	}
	if err := db.Sync(); err != nil {
		t.Fatalf("sync under transient faults: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart WITHOUT faults: the on-disk log must be whole — retries
	// rewrote every torn frame before moving on.
	m2, db2 := openFileDB(t, dir, FileOptions{SegmentBytes: 512})
	if tb := m2.Recovery().TornBytes; tb != 0 {
		t.Fatalf("retried writes left %d torn bytes", tb)
	}
	if got := db2.Get("a"); got != 40 {
		t.Fatalf("a = %d, want 40", got)
	}
	if !db2.Committed("t0") {
		t.Fatal("commit lost")
	}
	m2.Close()
}

// TestFileDiskFullDegrades: once the injected byte budget is exhausted the
// medium latches degraded. Appends only fill the log buffer, so the failure
// surfaces at the flush: Sync reports ErrDegraded, and so does every later
// operation, fast.
func TestFileDiskFullDegrades(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(fault.Plan{Seed: 7, DiskFullAfter: 600})
	m, db := openFileDB(t, dir, FileOptions{Faults: inj})
	defer m.Close()
	for i := 1; i <= 100; i++ {
		if _, err := db.Perform("t0", i, "a", func(v model.Value) (model.Value, string) {
			return v + 1, "inc"
		}); err != nil {
			t.Fatalf("buffered append %d failed before any flush: %v", i, err)
		}
		// A 600-byte budget absorbs the first few 100-byte chunks whole.
		if err := db.Sync(); err != nil {
			if !errors.Is(err, ErrDegraded) {
				t.Fatalf("disk-full error %v does not wrap ErrDegraded", err)
			}
			if !errors.Is(err, fault.ErrDiskFull) {
				t.Fatalf("disk-full error %v does not wrap fault.ErrDiskFull", err)
			}
			break
		}
		if i == 100 {
			t.Fatal("600-byte budget absorbed 100 flushed appends")
		}
	}
	// Latched: the next operations fail fast with the same sentinel.
	if _, err := db.Perform("t1", 1, "b", func(v model.Value) (model.Value, string) {
		return v, "noop"
	}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("post-degrade perform: %v", err)
	}
	if err := db.Sync(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("post-degrade sync: %v", err)
	}
}

// TestPipelineDegradedLatch: a pipeline over a degraded medium closes its
// acks (waiters unblock), latches Err, and fails later Performs fast —
// the contract the engine's ackHealthy check builds on. The disk failure
// surfaces at a flush, so it is that group's ack (and every later one) that
// closes with Err set; every ack that closed healthy is on disk.
func TestPipelineDegradedLatch(t *testing.T) {
	dir := t.TempDir()
	// Budget admits the early appends, then dies.
	inj := fault.New(fault.Plan{Seed: 11, DiskFullAfter: 400})
	m, err := OpenFile(dir, FileOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	db, err := Open(m, fuzzInit())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(db, 0)
	defer p.Close()

	var lastID model.TxnID
	var healthy []model.TxnID
	for i := 0; i < 100; i++ {
		id := model.TxnID("t" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		if _, perr := p.Perform(id, 1, "a", func(v model.Value) (model.Value, string) {
			return v + 1, "inc"
		}); perr != nil {
			if !errors.Is(perr, ErrDegraded) {
				t.Fatalf("perform error %v does not wrap ErrDegraded", perr)
			}
			break
		}
		lastID = id
		<-p.Submit([]model.TxnID{id})
		if p.Err() != nil {
			break
		}
		healthy = append(healthy, id)
	}
	if p.Err() == nil {
		t.Fatal("pipeline never degraded under a 400-byte budget")
	}
	if len(healthy) == 0 {
		t.Fatal("a 400-byte budget acked nothing before it ran out")
	}
	if !errors.Is(p.Err(), ErrDegraded) {
		t.Fatalf("pipeline error %v does not wrap ErrDegraded", p.Err())
	}
	if p.Snapshot().Degraded != 1 {
		t.Fatal("stats do not report degraded")
	}
	// Acks still close after the latch — no waiter hangs.
	<-p.Submit([]model.TxnID{lastID})

	// What the disk holds (the live medium stays mounted; a second, read-only
	// decode of its segments is safe): every healthy ack, and nothing after
	// the failed chunk.
	recs, _ := segmentFrames(t, dir)
	onDisk := make(map[model.TxnID]bool)
	for _, r := range recs {
		if r.Kind == Commit {
			onDisk[r.Txn] = true
		}
	}
	for _, id := range healthy {
		if !onDisk[id] {
			t.Fatalf("%s acked healthy but its commit record is not on disk", id)
		}
	}
	if onDisk[lastID] {
		t.Fatalf("%s was acked with Err set, yet its commit record reached the disk after the failed chunk", lastID)
	}
}

// TestPipelineAutoCheckpoint: with auto-checkpointing on, quiescent flush
// boundaries compact the log, bounding RecordsSinceCheckpoint.
func TestPipelineAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenFile(dir, FileOptions{SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	db, err := Open(m, fuzzInit())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(db, 0)
	p.AutoCheckpoint(10)
	for i := 0; i < 60; i++ {
		id := model.TxnID("t" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		if _, err := p.Perform(id, 1, "a", func(v model.Value) (model.Value, string) {
			return v + 1, "inc"
		}); err != nil {
			t.Fatal(err)
		}
		<-p.Submit([]model.TxnID{id})
	}
	p.Close()
	st := p.Snapshot()
	if st.Checkpoints == 0 {
		t.Fatal("auto-checkpoint never fired across 60 quiescent commits")
	}
	// The replay bound stays far below the 120 records written.
	if got := db.RecordsSinceCheckpoint(); got > 30 {
		t.Fatalf("RecordsSinceCheckpoint = %d, auto-checkpoint not bounding replay", got)
	}
	if got := db.Get("a"); got != 70 {
		t.Fatalf("a = %d, want 70", got)
	}
}

// FuzzFileWALRecovery drives a random single-entity-per-transaction history,
// compactions included, against a file-backed DB and an in-memory one, then
// mangles the tail of the on-disk log or any byte of the checkpoint archive
// (arbitrary truncation or a bit flip) and asserts the etcd-style repair
// contract: the mount either fails loudly (rot before the archive's last
// frame, or a lost frame whose segments are gone) or succeeds on an exact
// prefix of what was written — archive frames, then log records — recovery
// restores init plus exactly the commits inside that prefix (checked against
// the same oracle as the in-memory fuzz, and against the in-memory medium cut
// at the same LSN), and the repair is idempotent across a further restart.
func FuzzFileWALRecovery(f *testing.F) {
	f.Add([]byte{0, 3, 5, 0, 1, 4, 6, 2, 0, 1, 5, 9}, uint16(37), byte(0))
	f.Add([]byte{2, 9, 7, 7, 0, 1, 6, 6, 4, 4, 5, 5, 1, 2}, uint16(211), byte(1))
	f.Add([]byte{0, 0, 6, 0, 7, 0, 0, 1, 5, 1}, uint16(9999), byte(2))
	f.Add([]byte{0, 0, 5, 0, 8, 0, 1, 1, 6, 1, 8, 1}, uint16(110), byte(16))        // archive's last frame torn
	f.Add([]byte{0, 0, 5, 0, 8, 0, 1, 1, 6, 1, 8, 1, 2, 2}, uint16(60), byte(16))   // torn, its segments gone
	f.Add([]byte{0, 0, 5, 0, 8, 0, 1, 1, 6, 1, 8, 1, 2, 2}, uint16(20), byte(19))   // rot in its first frame
	f.Add([]byte{0, 0, 5, 0, 8, 0, 1, 1, 6, 1, 8, 1, 2, 2}, uint16(1000), byte(17)) // rot near its end
	f.Fuzz(func(t *testing.T, data []byte, tamper uint16, mode byte) {
		dir := t.TempDir()
		m, err := OpenFile(dir, FileOptions{SegmentBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		db, err := Open(m, fuzzInit())
		if err != nil {
			t.Fatal(err)
		}
		mem, err := Open(NewMedium(), fuzzInit())
		if err != nil {
			t.Fatal(err)
		}
		// One entity per transaction: every singleton commit/abort is
		// trivially dependency-closed, so the driver needs no closure
		// tracking (FuzzWALRecovery covers the dependency-rich shapes on
		// the shared medium code).
		txns := []model.TxnID{"f0", "f1", "f2"}
		ents := []model.EntityID{"a", "b", "c"}
		seqs := make(map[model.TxnID]int)
		live := make(map[model.TxnID]bool)
		committed := make(map[model.TxnID]bool)
		var recs []Record // everything ever logged: compaction drops it from the medium
		ops := len(data) / 2
		if ops > 100 {
			ops = 100
		}
		for i := 0; i < ops; i++ {
			op, arg := data[2*i]%9, data[2*i+1]
			ti := int(arg) % len(txns)
			id, x := txns[ti], ents[ti]
			for _, db := range []*DB{db, mem} {
				switch {
				case op <= 4: // perform
					if committed[id] {
						continue
					}
					delta := model.Value(int(arg%7) - 3)
					if _, err := db.Perform(id, seqs[id]+1, x, func(v model.Value) (model.Value, string) {
						return v + delta, "add"
					}); err != nil {
						t.Fatalf("perform: %v", err)
					}
				case op <= 6: // commit
					if committed[id] || seqs[id] == 0 {
						continue
					}
					if err := db.Commit(id); err != nil {
						t.Fatalf("commit: %v", err)
					}
				case op == 7: // abort (the txn may run again afterwards)
					if committed[id] || seqs[id] == 0 {
						continue
					}
					if err := db.Abort(map[model.TxnID]bool{id: true}); err != nil {
						t.Fatalf("abort: %v", err)
					}
				default: // compact, when quiescent
					if len(live) > 0 {
						continue
					}
					if db.medium == m {
						recs = append(recs, m.Records()...)
					}
					if err := db.CheckpointCompact(); err != nil {
						t.Fatalf("compact: %v", err)
					}
				}
			}
			switch {
			case committed[id]:
			case op <= 4:
				seqs[id]++
				live[id] = true
			case op <= 6 && seqs[id] > 0:
				committed[id] = true
				delete(live, id)
			case op == 7:
				delete(live, id)
			}
		}
		recs = append(recs, m.Records()...)
		// Die like kill -9 after a last flush: no Close, so a recycled
		// segment keeps whatever stale frames the new ones did not reach.
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		m.backing.f.Close()
		m.backing.arch.Close()

		// Mangle the (single) segment's tail, or the archive anywhere.
		target := lastSegment(t, dir)
		if mode&16 != 0 && len(m.archive) > 0 {
			target = filepath.Join(dir, archiveFile)
		}
		raw, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > 0 {
			at := int(tamper) % (len(raw) + 1)
			if mode%2 == 0 {
				// Crash-style truncation at an arbitrary byte.
				if err := os.Truncate(target, int64(at)); err != nil {
					t.Fatal(err)
				}
			} else if at < len(raw) {
				// Bit rot: in the last segment (or the archive's last frame)
				// the loader truncates from the first frame the flip made
				// undecodable; earlier in the archive it refuses the mount.
				raw[at] ^= 1 << (mode % 8)
				if err := os.WriteFile(target, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}

		m2, err := OpenFile(dir, FileOptions{SegmentBytes: 1 << 20})
		if err != nil {
			if target == lastSegment(t, dir) {
				t.Fatalf("mount after tampering with the last segment: %v", err)
			}
			return // archive damage may refuse the mount; it may not mount garbage
		}
		// What survived: the archive up to some frame, then log records from
		// the very next LSN. LSNs are consecutive from 1, so record i of the
		// history has LSN i+1.
		base, got := int(m2.archived), m2.Records()
		if base+len(got) > len(recs) {
			t.Fatalf("recovered through lsn %d from a log of %d", base+len(got), len(recs))
		}
		for i := range got {
			if w := recs[base+i]; got[i].LSN != w.LSN || got[i].Sum != w.Sum {
				t.Fatalf("record %d: recovered lsn %d sum %#x, wrote lsn %d sum %#x — not a prefix",
					i, got[i].LSN, got[i].Sum, w.LSN, w.Sum)
			}
		}
		db2, err := Open(m2, fuzzInit())
		if err != nil {
			t.Fatalf("recovery after tamper: %v", err)
		}
		want := expectedAfterRecovery(recs[:base+len(got)], fuzzInit())
		if v := db2.Values(); !sameValues(v, want) {
			t.Fatalf("recovered %v, want %v (prefix of %d records, %d of them archived)", v, want, base+len(got), base)
		}
		memCut, err := Open(mem.medium.Prefix(int64(base+len(got))), fuzzInit())
		if err != nil {
			t.Fatalf("in-memory recovery at lsn %d: %v", base+len(got), err)
		}
		sameMount(t, "file medium vs in-memory medium", db2, memCut)
		afterRecovery := db2.LogLen()
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}

		// Idempotence across another restart: the repaired log mounts with
		// nothing torn, recovery appends nothing, values hold.
		m3, err := OpenFile(dir, FileOptions{SegmentBytes: 1 << 20})
		if err != nil {
			t.Fatalf("second mount: %v", err)
		}
		if tb := m3.Recovery().TornBytes; tb != 0 {
			t.Fatalf("second mount still torn: %d bytes", tb)
		}
		db3, err := Open(m3, fuzzInit())
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		if db3.LogLen() != afterRecovery {
			t.Fatalf("second recovery appended %d records", db3.LogLen()-afterRecovery)
		}
		if v := db3.Values(); !sameValues(v, want) {
			t.Fatalf("second recovery changed values to %v", v)
		}
		m3.Close()
	})
}
