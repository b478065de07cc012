package wal

// Tests of the checkpoint archive: what a frame carries, what one compaction
// costs, every crash point of the compaction protocol (invariant 6 in
// file.go), and the Pipeline keeping the archive's I/O off its lock.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"mla/internal/fault"
	"mla/internal/model"
)

// commitOne performs one update of x by t and commits it.
func commitOne(t testing.TB, db *DB, id model.TxnID, x model.EntityID) {
	t.Helper()
	if _, err := db.Perform(id, 1, x, add(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(id); err != nil {
		t.Fatal(err)
	}
}

func mustCompact(t testing.TB, db *DB) {
	t.Helper()
	if err := db.CheckpointCompact(); err != nil {
		t.Fatal(err)
	}
}

// sameMount fails unless got holds exactly want's committed set and values.
func sameMount(t *testing.T, what string, got, want *DB) {
	t.Helper()
	if len(got.committed) != len(want.committed) {
		t.Fatalf("%s: %d committed, want %d", what, len(got.committed), len(want.committed))
	}
	for id := range want.committed {
		if !got.committed[id] {
			t.Fatalf("%s: %s lost its commit", what, id)
		}
	}
	if g, w := got.Values(), want.Values(); !sameValues(g, w) {
		t.Fatalf("%s: values %v, want %v", what, g, w)
	}
}

// TestArchiveCarriesCommittedSet: each frame's Done is exactly the ids
// committed since the previous frame — never the full set — and folding the
// frames plus the replayed Commit records yields every id ever committed,
// across commits, commit groups, stray duplicate commits, empty checkpoints
// and reopens.
func TestArchiveCarriesCommittedSet(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		m, db := openFileDB(t, dir, FileOptions{SegmentBytes: 2 << 10})
		var ids, since []model.TxnID
		fresh := func() model.TxnID {
			// Not in commit order, varying widths: "e9-…" sorts after "e10-…".
			id := model.TxnID(fmt.Sprintf("e%d-t%d", rng.Intn(12), len(ids)))
			ids, since = append(ids, id), append(since, id)
			return id
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				if err := db.Commit(fresh()); err != nil {
					t.Fatal(err)
				}
			case op < 7:
				group := []model.TxnID{fresh(), fresh(), fresh()}
				if len(ids) > 3 && rng.Intn(3) == 0 {
					group = append(group, ids[rng.Intn(len(ids))]) // stray duplicate
				}
				if err := db.CommitGroup(group); err != nil {
					t.Fatal(err)
				}
			case op < 9:
				frames := len(m.archive)
				mustCompact(t, db)
				if len(since) == 0 {
					if len(m.archive) != frames {
						t.Fatalf("seed %d step %d: a checkpoint with nothing logged since the last appended a frame", seed, step)
					}
					continue
				}
				got := m.archive[len(m.archive)-1].Done
				if len(got) != len(since) {
					t.Fatalf("seed %d step %d: frame carries %d ids, %d committed since the last frame (%d ever)",
						seed, step, len(got), len(since), len(ids))
				}
				for i := range got {
					if got[i] != since[i] {
						t.Fatalf("seed %d step %d: frame id %d is %s, want %s", seed, step, i, got[i], since[i])
					}
				}
				since = since[:0]
			default:
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				m, db = openFileDB(t, dir, FileOptions{SegmentBytes: 2 << 10})
				if len(db.committed) != len(ids) {
					t.Fatalf("seed %d step %d: %d committed after reopen, want %d", seed, step, len(db.committed), len(ids))
				}
				for _, id := range ids {
					if !db.committed[id] {
						t.Fatalf("seed %d step %d: %s lost across reopen", seed, step, id)
					}
				}
			}
		}
		m.Close()
	}
}

// TestPrefixAcrossArchive: on the in-memory medium a crash prefix cut inside
// a compacted stretch falls back to the last frame at or below the cut (the
// records in between are gone, as their segments would be); at or past the
// last frame it is the exact prefix. Either way recovery restores init plus
// exactly the commits inside it.
func TestPrefixAcrossArchive(t *testing.T) {
	db, err := Open(NewMedium(), fuzzInit())
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	var frames []int64
	for i := 0; i < 12; i++ {
		commitOne(t, db, model.TxnID("t"+strconv.Itoa(i)), []model.EntityID{"a", "b", "c"}[i%3])
		if i == 3 || i == 7 {
			recs = append(recs, db.medium.Records()...)
			mustCompact(t, db)
			frames = append(frames, db.medium.archived)
		}
	}
	mustPerform(t, db, "loser", 1, "a", 100)
	recs = append(recs, db.medium.Records()...)
	for lsn := int64(0); lsn <= int64(len(recs)); lsn++ {
		cut := lsn
		if lsn < frames[len(frames)-1] {
			cut = 0
			for _, f := range frames {
				if f <= lsn {
					cut = f
				}
			}
		}
		pdb, err := Open(db.medium.Prefix(lsn), fuzzInit())
		if err != nil {
			t.Fatalf("prefix %d: %v", lsn, err)
		}
		if got, want := pdb.Values(), expectedAfterRecovery(recs[:cut], fuzzInit()); !sameValues(got, want) {
			t.Fatalf("prefix %d (consistent through lsn %d): recovered %v, want %v", lsn, cut, got, want)
		}
		if n := len(pdb.committed); n != int(cut)/2 {
			t.Fatalf("prefix %d: %d committed, want %d", lsn, n, cut/2)
		}
	}
}

// frameEnds returns the end offset of every length-prefixed frame in data.
func frameEnds(data []byte) (ends []int) {
	for off := 0; off+4 <= len(data); {
		off += 4 + int(binary.BigEndian.Uint32(data[off:]))
		ends = append(ends, off)
	}
	return ends
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestArchiveCrashPoints stops a compaction after each of its steps — by
// assembling the directory that step leaves — and mounts the result: every
// state must recover the committed set and values of the in-memory oracle
// that ran the same history, and do so again on a second mount. States that
// lose an archive frame whose segments are gone must fail the mount.
func TestArchiveCrashPoints(t *testing.T) {
	opts := FileOptions{SegmentBytes: 256}
	before, after, recycled, overwritten := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	m, db := openFileDB(t, before, opts)
	oracle, err := Open(NewMedium(), fuzzInit())
	if err != nil {
		t.Fatal(err)
	}
	both := func(f func(db *DB)) { f(db); f(oracle) }
	commits := func(from, to int) {
		for i := from; i < to; i++ {
			x := model.EntityID("r" + strconv.Itoa(i)) // a new entity per transaction, plus a hot one
			both(func(db *DB) {
				commitOne(t, db, model.TxnID("t"+strconv.Itoa(i)), x)
				commitOne(t, db, model.TxnID("h"+strconv.Itoa(i)), "a")
			})
		}
	}
	commits(0, 8)
	both(func(db *DB) { mustCompact(t, db) }) // an earlier frame for the torn one to fall back on
	commits(8, 16)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	segsBefore, _ := filepath.Glob(filepath.Join(before, segPrefix+"*"+segSuffix))
	if len(segsBefore) < 3 {
		t.Fatalf("%d segments before the compaction, want several", len(segsBefore))
	}
	// The compaction under test runs in a copy: `before` stays as it was.
	m.Close()
	copyDir(t, before, after)
	m, db = openFileDB(t, after, opts)
	mustCompact(t, db)
	mustCompact(t, oracle)
	copyDir(t, after, recycled) // the compaction complete, nothing logged since
	// The same process goes on: it overwrites the recycled segment from the
	// start and dies with the stale remainder still behind the new frames.
	later, err := Open(oracle.medium.Prefix(oracle.medium.nextLSN), fuzzInit())
	if err != nil {
		t.Fatal(err)
	}
	commitOne(t, db, "late", "a")
	commitOne(t, later, "late", "a")
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	copyDir(t, after, overwritten)
	m.Close()
	archive, err := os.ReadFile(filepath.Join(recycled, archiveFile))
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(archive)
	if len(ends) != 2 {
		t.Fatalf("%d archive frames, want 2", len(ends))
	}
	lastSeg, err := os.ReadFile(segsBefore[len(segsBefore)-1])
	if err != nil {
		t.Fatal(err)
	}
	segEnds := frameEnds(lastSeg)

	cases := []struct {
		name  string
		build func(dir string) // dir starts as a copy of `before`
		fails bool
		want  *DB // oracle unless set
	}{
		{"archive frame torn", func(dir string) {
			os.WriteFile(filepath.Join(dir, archiveFile), archive[:ends[0]+(ends[1]-ends[0])/2], 0o644)
		}, false, nil},
		{"archive frame durable, nothing unlinked", func(dir string) {
			os.WriteFile(filepath.Join(dir, archiveFile), archive, 0o644)
		}, false, nil},
		{"some segments unlinked", func(dir string) {
			os.WriteFile(filepath.Join(dir, archiveFile), archive, 0o644)
			os.Remove(filepath.Join(dir, filepath.Base(segsBefore[0])))
			os.Remove(filepath.Join(dir, filepath.Base(segsBefore[1])))
		}, false, nil},
		{"compaction complete", func(dir string) {
			os.RemoveAll(dir)
			copyDir(t, recycled, dir)
		}, false, nil},
		{"recycled segment partly overwritten", func(dir string) {
			os.RemoveAll(dir)
			copyDir(t, overwritten, dir)
		}, false, later},
		{"unsynced segment tail lost behind a durable frame", func(dir string) {
			os.WriteFile(filepath.Join(dir, archiveFile), archive, 0o644)
			os.WriteFile(filepath.Join(dir, filepath.Base(segsBefore[len(segsBefore)-1])), lastSeg[:segEnds[0]+3], 0o644)
		}, false, nil},
		{"frame lost after its segments were unlinked", func(dir string) {
			os.Remove(filepath.Join(dir, filepath.Base(segsBefore[0])))
			os.WriteFile(filepath.Join(dir, archiveFile), archive[:ends[0]], 0o644)
		}, true, nil},
		{"rot inside an earlier frame", func(dir string) {
			rotten := append([]byte(nil), archive...)
			rotten[ends[0]/2] ^= 0x01
			os.WriteFile(filepath.Join(dir, archiveFile), rotten, 0o644)
		}, true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			copyDir(t, before, dir)
			tc.build(dir)
			if tc.fails {
				if m, err := OpenFile(dir, opts); err == nil {
					m.Close()
					t.Fatal("mount succeeded")
				}
				return
			}
			want := tc.want
			if want == nil {
				want = oracle
			}
			m1, db1 := openFileDB(t, dir, opts)
			sameMount(t, "first mount", db1, want)
			if tc.want != nil && m1.Recovery().TornBytes == 0 {
				t.Fatal("no stale remainder behind the new frames: the state under test was not built")
			}
			if next := m1.nextLSN; next != want.medium.nextLSN {
				t.Fatalf("log continues at lsn %d, the oracle at %d", next, want.medium.nextLSN)
			}
			// New work lands past the archive and survives the next mount —
			// after a clean close, and after a kill that leaves whatever
			// stale bytes still follow it.
			commitOne(t, db1, "post", "a")
			if err := db1.Sync(); err != nil {
				t.Fatal(err)
			}
			killed := filepath.Join(t.TempDir(), "wal")
			copyDir(t, dir, killed)
			if err := m1.Close(); err != nil {
				t.Fatal(err)
			}
			for _, d := range []string{dir, killed, killed} {
				m2, db2 := openFileDB(t, d, opts)
				if tb := m2.Recovery().TornBytes; tb != 0 && d == dir {
					t.Fatalf("mount after a clean close found %d torn bytes", tb)
				}
				if !db2.Committed("post") || db2.Get("a") != db1.Get("a") {
					t.Fatalf("%s: lost the work done after the first mount (a = %d, want %d)", d, db2.Get("a"), db1.Get("a"))
				}
				if sc := m2.Recovery().SinceCheckpoint; sc < 2 {
					t.Fatalf("%s: redid %d records, want at least the 2 appended", d, sc)
				}
				m2.Close()
			}
		})
	}
}

// compactionCost runs `ever` committed transactions, each minting an entity,
// compacts, then commits a fixed delta — 128 transactions on 8 entities —
// and reports what the second compaction cost.
type compactionCost struct {
	writes, syncs      int64
	frameBytes, digits int // archive bytes appended; of them, the LSN's and checksum's decimal digits
	entities, ids      int
}

func costOfDelta(t *testing.T, ever int) compactionCost {
	t.Helper()
	dir := t.TempDir()
	inj := fault.New(fault.Plan{DiskFullAfter: 1 << 60}) // injects nothing; counts
	m, db := openFileDB(t, dir, FileOptions{Faults: inj})
	defer m.Close()
	for i := 0; i < ever; i++ {
		commitOne(t, db, model.TxnID("ever-"+strconv.Itoa(i)), model.EntityID("res/"+strconv.Itoa(i)))
	}
	mustCompact(t, db)
	for i := 0; i < 128; i++ {
		commitOne(t, db, model.TxnID(fmt.Sprintf("delta-%03d", i)), model.EntityID("acct/"+strconv.Itoa(i%8)))
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	w0, s0, _ := inj.DiskOps()
	size0 := m.backing.archOff
	mustCompact(t, db)
	w1, s1, _ := inj.DiskOps()
	frame := m.archive[len(m.archive)-1]
	return compactionCost{
		writes: w1 - w0, syncs: s1 - s0,
		frameBytes: int(m.backing.archOff - size0),
		digits:     len(strconv.FormatInt(frame.LSN, 10)) + len(strconv.FormatUint(frame.Sum, 10)),
		entities:   len(frame.Snapshot), ids: len(frame.Done),
	}
}

// TestCompactionCostIsTheDelta: one compaction of a fixed delta appends the
// same bytes and issues the same writes and fsyncs — the archive frame's, and
// the synchronous call's flush of an already clean log — whether 1k or 50k
// ids and entities were committed before it (the frame's LSN and checksum
// are decimal, so their digit counts are taken out of the comparison).
func TestCompactionCostIsTheDelta(t *testing.T) {
	small, large := costOfDelta(t, 1_000), costOfDelta(t, 50_000)
	if small.entities != 8 || small.ids != 128 {
		t.Fatalf("frame carries %d entities and %d ids, want the delta's 8 and 128", small.entities, small.ids)
	}
	small.frameBytes -= small.digits
	large.frameBytes -= large.digits
	small.digits, large.digits = 0, 0
	if small != large {
		t.Fatalf("one compaction of the same delta cost %+v after 1k, %+v after 50k", small, large)
	}
	if small.writes != 1 || small.syncs != 2 {
		t.Fatalf("compaction issued %d writes and %d file fsyncs, want 1 and 2", small.writes, small.syncs)
	}
}

// BenchmarkCheckpointCompact times one compaction of a 128-transaction delta
// on a log that has already committed `ever` ids and minted as many entities.
func BenchmarkCheckpointCompact(b *testing.B) {
	for _, ever := range []int{1_000, 50_000} {
		b.Run(fmt.Sprintf("ever=%dk/delta=128", ever/1000), func(b *testing.B) {
			m, err := OpenFile(b.TempDir(), FileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			db, err := Open(m, fuzzInit())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < ever; i++ {
				commitOne(b, db, model.TxnID("ever-"+strconv.Itoa(i)), model.EntityID("res/"+strconv.Itoa(i)))
			}
			mustCompact(b, db)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				for i := 0; i < 128; i++ {
					commitOne(b, db, model.TxnID("d"+strconv.Itoa(n)+"-"+strconv.Itoa(i)), model.EntityID("acct/"+strconv.Itoa(i%8)))
				}
				if err := db.Sync(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				mustCompact(b, db)
			}
		})
	}
}

// TestPerformDuringStalledCheckpoint: Pipeline.mu is not held across the
// checkpoint's disk I/O. Every disk call stalls; once the first commit is
// acked the flusher is inside the compaction's persist step for at least two
// stalls, and a Perform issued then must return long before it ends.
func TestPerformDuringStalledCheckpoint(t *testing.T) {
	const stall = 300 * time.Millisecond
	inj := fault.New(fault.Plan{Seed: 1, DiskStallRate: 1, DiskStall: stall})
	m, err := OpenFile(t.TempDir(), FileOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	db, err := Open(m, fuzzInit())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(db, 0)
	p.AutoCheckpoint(1)
	if _, err := p.Perform("t0", 1, "a", add(1)); err != nil {
		t.Fatal(err)
	}
	<-p.Submit([]model.TxnID{"t0"})
	// The capture empties the replay bound; the persist step follows it.
	for deadline := time.Now().Add(10 * stall); p.RecordsSinceCheckpoint() > 0; {
		if time.Now().After(deadline) {
			t.Fatal("the flusher never captured a checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	if _, err := p.Perform("t1", 1, "b", add(1)); err != nil {
		t.Fatal(err)
	}
	took := time.Since(t0)
	if n := p.Snapshot().Checkpoints; n != 0 {
		t.Fatalf("the checkpoint finished (%d) before the Perform was tried: nothing was tested", n)
	}
	if took > stall/2 {
		t.Fatalf("Perform took %v while the checkpoint was on the disk (stall %v): it waited for the I/O", took, stall)
	}
	<-p.Submit([]model.TxnID{"t1"})
	p.Close()
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if n := p.Snapshot().Checkpoints; n == 0 {
		t.Fatal("no checkpoint was taken")
	}
}

// TestPipelineDegradesOnArchiveFailure: a failed archive write latches
// ErrDegraded exactly as a failed segment write does — the commit whose
// flush preceded it was acked healthy and is on disk, nothing after it is
// acked, and a reopen finds the acked commit.
func TestPipelineDegradesOnArchiveFailure(t *testing.T) {
	dir := t.TempDir()
	// The budget is checked when a write starts: the first flush starts
	// within it, the archive write that follows does not.
	inj := fault.New(fault.Plan{Seed: 5, DiskFullAfter: 50})
	m, err := OpenFile(dir, FileOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(m, fuzzInit())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(db, 0)
	p.AutoCheckpoint(1)
	if _, err := p.Perform("t0", 1, "a", add(1)); err != nil {
		t.Fatal(err)
	}
	<-p.Submit([]model.TxnID{"t0"})
	// The flusher is now persisting the checkpoint; Close joins it.
	p.Close()
	if !errors.Is(p.Err(), ErrDegraded) || !errors.Is(p.Err(), fault.ErrDiskFull) {
		t.Fatalf("pipeline error after a failed archive write: %v", p.Err())
	}
	if st := p.Snapshot(); st.Degraded != 1 || st.Checkpoints != 0 {
		t.Fatalf("stats after a failed archive write: %+v", st)
	}
	if _, err := db.Perform("t1", 1, "b", add(1)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("perform on the degraded medium: %v", err)
	}
	m.Close()
	m2, db2 := openFileDB(t, dir, FileOptions{})
	defer m2.Close()
	if !db2.Committed("t0") || db2.Get("a") != 11 {
		t.Fatalf("acked commit after reopen: committed=%v a=%d", db2.Committed("t0"), db2.Get("a"))
	}
}
