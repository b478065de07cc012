// Package wal adds durability to the entity store: a write-ahead log on a
// simulated durable medium, a volatile value cache, checkpoints, crash
// injection, and restart recovery. The paper's Section 1 separates three
// roles of a transaction — logical unit, unit of atomicity, unit of
// recovery — and this package realizes the recovery role across crashes:
// committed transactions survive, in-flight transactions are rolled back on
// restart.
//
// The design follows the standard write-ahead discipline with compensation
// log records (CLRs): every physical undo performed by a rollback is itself
// logged, so recovery is a single forward redo pass (updates and
// compensations alike) followed by undo of the remaining live updates of
// loser transactions. Recovery is idempotent — recovering an
// already-recovered log changes nothing.
//
// The commit discipline is the scheduler layer's: a transaction may commit
// only when every transaction whose values it observed has committed (group
// commit). Recovery relies on that — winners never depend on losers — and
// verifies the value chain, reporting corruption if a winner observed a
// loser's value.
package wal

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"mla/internal/fault"
	"mla/internal/model"
)

// ErrDegraded marks a durable medium that has persistently failed: a
// write or fsync kept failing after capped-backoff retries (or hit an
// injected disk-full). Every error the medium returns after giving up
// wraps this sentinel, so the layers above (pipeline, engine session,
// serve) can distinguish "the disk is gone — shed writes and degrade"
// from a logic error.
var ErrDegraded = errors.New("wal: durable medium degraded")

// Kind tags a log record.
type Kind int

const (
	// Update records one step's before/after images.
	Update Kind = iota
	// Compensation records one physical undo applied during a rollback:
	// the entity was restored from Before to After (= the cancelled
	// update's before-image). Redone like an Update at recovery.
	Compensation
	// Commit marks a transaction durable.
	Commit
	// Abort marks the completion of a rollback; Keep is the kept prefix
	// length (0 = full abort).
	Abort
	// Checkpoint is an archive frame, never a log record: what one
	// compaction found changed since the previous one (see Medium.archive).
	Checkpoint
)

func (k Kind) String() string {
	switch k {
	case Update:
		return "update"
	case Compensation:
		return "compensation"
	case Commit:
		return "commit"
	case Abort:
		return "abort"
	case Checkpoint:
		return "checkpoint"
	}
	return "unknown"
}

// Record is one durable log entry. The json tags are the on-disk frame
// payload of the file-backed medium (see file.go); the in-memory medium
// never serializes.
type Record struct {
	LSN    int64          `json:"l"`
	Kind   Kind           `json:"k"`
	Txn    model.TxnID    `json:"t,omitempty"`
	Seq    int            `json:"q,omitempty"`
	Entity model.EntityID `json:"e,omitempty"`
	Before model.Value    `json:"b,omitempty"`
	After  model.Value    `json:"a,omitempty"`
	// Keep is set on Abort records: the kept prefix length (0 = full).
	Keep int `json:"p,omitempty"`
	// Group is set on Commit records written by CommitGroup: the
	// additional members committed atomically with Txn. A commit group
	// whose members observed each other's values must be one record — a
	// torn tail then keeps the whole group or none of it, never a winner
	// depending on a loser.
	Group []model.TxnID `json:"g,omitempty"`
	// Snapshot and Done are set on Checkpoint frames, whose LSN is that of
	// the last log record they cover: the value of every entity written,
	// and every transaction committed, since the previous frame. Compaction
	// deletes the Update and Commit records behind a frame, so the frames
	// together carry the committed state — restart re-verification
	// (Durable/Committed lookups) folds all of them, in order.
	Snapshot map[model.EntityID]model.Value `json:"s,omitempty"`
	Done     []model.TxnID                  `json:"d,omitempty"`

	// Sum is the record's integrity checksum, computed by the medium on
	// append over every payload field (including the LSN, so a record
	// cannot be relocated undetected). Recovery verifies it before
	// replaying anything: a torn tail is a missing suffix and every prefix
	// is a consistent input, but a CORRUPTED record — bit rot, a misdirected
	// write — is not recoverable-around and must fail Open loudly instead
	// of replaying garbage into the redo pass.
	Sum uint64 `json:"x"`
}

// FNV-1a, the codebase's standard seedless hash (see internal/fault).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func mixInt(h uint64, v int64) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h = (h ^ (u & 0xff)) * fnvPrime
		u >>= 8
	}
	return h
}

func mixStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	// Length terminator: distinguishes ("ab","c") from ("a","bc").
	return mixInt(h, int64(len(s)))
}

// checksum folds every field that gives the record meaning, without
// allocating. Snapshot entries are hashed one by one and summed, so map
// iteration order does not matter.
func (r *Record) checksum() uint64 {
	h := fnvOffset
	h = mixInt(h, r.LSN)
	h = mixInt(h, int64(r.Kind))
	h = mixStr(h, string(r.Txn))
	h = mixInt(h, int64(r.Seq))
	h = mixStr(h, string(r.Entity))
	h = mixInt(h, int64(r.Before))
	h = mixInt(h, int64(r.After))
	h = mixInt(h, int64(r.Keep))
	h = mixInt(h, int64(len(r.Group)))
	for _, g := range r.Group {
		h = mixStr(h, string(g))
	}
	h = mixInt(h, int64(len(r.Done)))
	for _, d := range r.Done {
		h = mixStr(h, string(d))
	}
	if len(r.Snapshot) > 0 {
		var sum uint64
		for k, v := range r.Snapshot {
			sum += mixInt(mixStr(fnvOffset, string(k)), int64(v))
		}
		h = mixInt(mixInt(h, int64(len(r.Snapshot))), int64(sum))
	}
	return h
}

// Medium is the simulated durable device: an append-only record sequence
// that survives Crash, plus the checkpoint archive behind it. Prefix
// returns a truncated copy for torn-crash tests.
//
// Sync models the device flush (fsync): it costs SyncDelay of wall-clock
// time and bumps a counter. Appended records are always recoverable in this
// simulation — Sync exists so that commit paths pay a realistic per-flush
// latency and so the benchmark harness can report fsyncs/commit; the
// group-commit Pipeline earns its throughput by amortizing exactly this
// cost across a batch.
type Medium struct {
	// archive is the append-only checkpoint archive: one Checkpoint frame
	// per compaction, LSNs ascending, never rewritten; archived is the last
	// one's LSN. records holds only the log past it — the records recovery
	// has to redo — with consecutive LSNs (a frame consumes none).
	archive  []Record
	archived int64
	records  []Record
	nextLSN  int64

	// backing, when non-nil, is the real on-disk segment log behind this
	// medium (see file.go). Appends enter its log buffer BEFORE the
	// in-memory cache (the write-ahead rule applied to the medium itself),
	// and Sync becomes one write of the buffer plus a real fsync.
	backing *fileBacking
	info    RecoveryInfo

	// SyncDelay is the simulated per-fsync device latency. Zero means
	// syncs are free (counted but instantaneous). Set before use; not
	// safe to change concurrently with Sync.
	SyncDelay time.Duration
	syncs     atomic.Int64

	// Faults, when non-nil, counts appends toward its crash points
	// (fault.Plan.CrashAppends). The append that reaches one is durable;
	// then the medium latches, and every later append fails fast with
	// fault.ErrCrash until Open mounts it again. Recovery's own appends are
	// not counted. Set before use; Prefix carries it over.
	Faults  *fault.Injector
	crashed bool
}

// NewMedium returns an empty in-memory durable medium.
func NewMedium() *Medium { return &Medium{nextLSN: 1} }

// append logs r and counts it against the crash points; see Faults.
func (m *Medium) append(r Record) (Record, error) {
	if m.crashed {
		return Record{}, fault.ErrCrash
	}
	r, err := m.put(r)
	if err == nil && m.Faults != nil && m.Faults.OnAppend() {
		m.crashed = true
		return r, fault.ErrCrash
	}
	return r, err
}

// put logs r, uncounted.
func (m *Medium) put(r Record) (Record, error) {
	r.LSN = m.nextLSN
	r.Sum = r.checksum()
	if m.backing != nil {
		if err := m.backing.append(r); err != nil {
			return Record{}, err
		}
	}
	m.nextLSN++
	m.records = append(m.records, r)
	return r, nil
}

// Recovery reports what the last OpenFile load found: the boot epoch, how
// many records survived, the replay distance from the latest checkpoint,
// and how many torn tail bytes were truncated away. Zero value for
// in-memory media.
func (m *Medium) Recovery() RecoveryInfo { return m.info }

// Close releases the on-disk backing (final fsync included). In-memory
// media close trivially.
func (m *Medium) Close() error {
	if m.backing == nil {
		return nil
	}
	return m.backing.close()
}

// Corrupt flips the payload of the record with the given LSN without
// recomputing its checksum — simulated bit rot for recovery tests. It
// reports whether a record with that LSN existed.
func (m *Medium) Corrupt(lsn int64) bool {
	for i := range m.records {
		if m.records[i].LSN == lsn {
			m.records[i].After++
			m.records[i].Before--
			return true
		}
	}
	return false
}

// Len returns the number of durable records.
func (m *Medium) Len() int { return len(m.records) }

// Sync flushes the device: sleeps SyncDelay, increments the sync counter,
// and — on a file-backed medium — writes every record appended so far as
// one chunk and fsyncs (with capped-backoff retries under injected faults);
// a disk failure surfaces here, not at the append. Callers invoke it outside
// any log lock: appends keep buffering while the flush is on the device.
func (m *Medium) Sync() error {
	if m.SyncDelay > 0 {
		time.Sleep(m.SyncDelay)
	}
	m.syncs.Add(1)
	if m.backing != nil {
		return m.backing.sync()
	}
	return nil
}

// Syncs returns the number of device flushes performed.
func (m *Medium) Syncs() int64 { return m.syncs.Load() }

// Records returns a copy of the durable log.
func (m *Medium) Records() []Record { return append([]Record(nil), m.records...) }

// Prefix returns a new medium holding only the archive frames and records
// with LSN ≤ lsn — simulating a crash where everything later never reached
// the device. Because the DB appends each record before applying its effect
// (the WAL rule), any prefix is a consistent recovery input.
func (m *Medium) Prefix(lsn int64) *Medium {
	out := NewMedium()
	out.SyncDelay, out.Faults = m.SyncDelay, m.Faults
	for _, a := range m.archive {
		if a.LSN <= lsn {
			out.archive, out.archived = append(out.archive, a), a.LSN
			out.nextLSN = a.LSN + 1
		}
	}
	for _, r := range m.records {
		if r.LSN <= lsn {
			out.records = append(out.records, r)
			out.nextLSN = r.LSN + 1
		}
	}
	return out
}

// DB is the recoverable store.
type DB struct {
	medium *Medium
	init   map[model.EntityID]model.Value

	vals      map[model.EntityID]model.Value
	committed map[model.TxnID]bool
	// The next archive frame's content: the ids committed and the entities
	// written (one entry per Update, repeats included) since the last one.
	fresh []model.TxnID
	dirty []model.EntityID
	// live: per transaction, the stack of update records not yet cancelled
	// by a compensation (oldest first).
	live map[model.TxnID][]Record
	// freeStacks recycles live-update stacks of retired transactions: a
	// committed transaction's stack goes back in the pool instead of to the
	// GC, so the steady-state Perform path of a long run stops allocating
	// per-transaction slices.
	freeStacks [][]Record
}

// maxFreeStacks caps the recycled stack pool (it only needs to cover peak
// concurrent transactions).
const maxFreeStacks = 64

// liveStack returns t's live stack, reusing a pooled one for a transaction's
// first update.
func (db *DB) liveStack(t model.TxnID) []Record {
	stack, ok := db.live[t]
	if !ok && len(db.freeStacks) > 0 {
		stack = db.freeStacks[len(db.freeStacks)-1]
		db.freeStacks = db.freeStacks[:len(db.freeStacks)-1]
	}
	return stack
}

// retireLive deletes t's live stack and pools its backing array.
func (db *DB) retireLive(t model.TxnID) {
	if stack, ok := db.live[t]; ok {
		delete(db.live, t)
		if cap(stack) > 0 && len(db.freeStacks) < maxFreeStacks {
			clear(stack) // drop record references (entity strings, group slices)
			db.freeStacks = append(db.freeStacks, stack[:0])
		}
	}
}

// Open mounts a DB on the medium, running recovery if it is nonempty. init
// provides the values of a fresh database; the archive overrides the
// entities it names. Mounting is a reboot: a crash latch is cleared.
func Open(m *Medium, init map[model.EntityID]model.Value) (*DB, error) {
	m.crashed = false
	db := &DB{
		medium:    m,
		init:      copyVals(init),
		vals:      copyVals(init),
		committed: make(map[model.TxnID]bool),
		live:      make(map[model.TxnID][]Record),
	}
	if err := db.recover(); err != nil {
		return nil, err
	}
	return db, nil
}

func copyVals(in map[model.EntityID]model.Value) map[model.EntityID]model.Value {
	out := make(map[model.EntityID]model.Value, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// recover folds the checkpoint archive over init (values, committed set),
// redoes every update and compensation of the log past it in order, then
// undoes the losers (transactions with live updates but no Commit),
// newest-first, logging the undo as fresh compensations plus Abort markers.
func (db *DB) recover() error {
	archive, records := db.medium.archive, db.medium.records
	// Integrity pass over the WHOLE durable medium, before anything is
	// replayed: a checksum mismatch means the medium holds a corrupted
	// record (not a torn tail — truncation just shortens the sequence), and
	// no replay decision downstream of it can be trusted. Detection, not
	// repair: the operator (or test) gets an error naming the LSN.
	for _, rs := range [][]Record{archive, records} {
		for i := range rs {
			if got, want := rs[i].Sum, rs[i].checksum(); got != want {
				return fmt.Errorf("wal: corrupted record at lsn %d (%s): checksum %#x, expected %#x",
					rs[i].LSN, rs[i].Kind, got, want)
			}
		}
	}
	for _, a := range archive {
		for x, v := range a.Snapshot {
			db.vals[x] = v
		}
		for _, t := range a.Done {
			db.committed[t] = true
		}
	}
	for _, r := range records {
		switch r.Kind {
		case Update:
			if cur := db.vals[r.Entity]; cur != r.Before {
				return fmt.Errorf("wal: redo mismatch at lsn %d: %s expected %d, found %d",
					r.LSN, r.Entity, r.Before, cur)
			}
			db.vals[r.Entity] = r.After
			db.dirty = append(db.dirty, r.Entity)
			db.live[r.Txn] = append(db.live[r.Txn], r)
		case Compensation:
			if r.Before != r.After {
				// Value-preserving updates compensate as pure stack pops.
				if cur := db.vals[r.Entity]; cur != r.Before {
					return fmt.Errorf("wal: compensation redo mismatch at lsn %d: %s expected %d, found %d",
						r.LSN, r.Entity, r.Before, cur)
				}
				db.vals[r.Entity] = r.After
			}
			// Cancel the transaction's most recent live update.
			stack := db.live[r.Txn]
			if len(stack) == 0 {
				return fmt.Errorf("wal: compensation at lsn %d without a live update for %s", r.LSN, r.Txn)
			}
			top := stack[len(stack)-1]
			if top.Entity != r.Entity {
				return fmt.Errorf("wal: compensation at lsn %d cancels %s but top of stack is %s",
					r.LSN, r.Entity, top.Entity)
			}
			db.live[r.Txn] = stack[:len(stack)-1]
		case Commit:
			db.markCommitted(r.Txn)
			delete(db.live, r.Txn)
			for _, t := range r.Group {
				db.markCommitted(t)
				delete(db.live, t)
			}
		case Abort:
			// Marker only; the physical work was logged as compensations.
			if len(db.live[r.Txn]) == 0 {
				delete(db.live, r.Txn)
			}
		default:
			return fmt.Errorf("wal: %s record at lsn %d does not belong in the log", r.Kind, r.LSN)
		}
	}
	// Undo losers: all remaining live updates, newest first globally.
	var loserRecs []Record
	for t, stack := range db.live {
		if db.committed[t] {
			return fmt.Errorf("wal: committed transaction %s has live updates", t)
		}
		loserRecs = append(loserRecs, stack...)
	}
	sortByLSNDesc(loserRecs)
	for _, u := range loserRecs {
		if u.Before != u.After {
			if cur := db.vals[u.Entity]; cur != u.After {
				return fmt.Errorf("wal: loser undo mismatch at lsn %d (%s on %s): a committed transaction observed an uncommitted value",
					u.LSN, u.Txn, u.Entity)
			}
			db.vals[u.Entity] = u.Before
		}
		if _, err := db.medium.put(Record{Kind: Compensation, Txn: u.Txn, Seq: u.Seq, Entity: u.Entity, Before: u.After, After: u.Before}); err != nil {
			return fmt.Errorf("wal: recovery undo: %w", err)
		}
	}
	seen := make(map[model.TxnID]bool)
	for _, u := range loserRecs {
		if !seen[u.Txn] {
			seen[u.Txn] = true
			if _, err := db.medium.put(Record{Kind: Abort, Txn: u.Txn}); err != nil {
				return fmt.Errorf("wal: recovery abort marker: %w", err)
			}
			delete(db.live, u.Txn)
		}
	}
	return nil
}

func sortByLSNDesc(rs []Record) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].LSN > rs[j].LSN })
}

// Get returns the current value of x.
func (db *DB) Get(x model.EntityID) model.Value { return db.vals[x] }

// Values returns a copy of the current state.
func (db *DB) Values() map[model.EntityID]model.Value { return copyVals(db.vals) }

// Committed reports whether t has a durable commit.
func (db *DB) Committed(t model.TxnID) bool { return db.committed[t] }

// Perform executes one atomic step WAL-first: the update record is logged
// (so durable no later than any later record) before the value changes.
func (db *DB) Perform(t model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) (model.Step, error) {
	if db.committed[t] {
		return model.Step{}, fmt.Errorf("wal: %s already committed", t)
	}
	before := db.vals[x]
	after, label := f(before)
	rec, err := db.medium.append(Record{Kind: Update, Txn: t, Seq: seq, Entity: x, Before: before, After: after})
	if err != nil {
		// WAL-first means a failed append changes nothing volatile: the
		// step did not happen (or, at a crash point, the system died with
		// its record durable, and recovery undoes it).
		return model.Step{}, err
	}
	db.vals[x] = after
	db.dirty = append(db.dirty, x)
	db.live[t] = append(db.liveStack(t), rec)
	return model.Step{Txn: t, Seq: seq, Entity: x, Label: label, Before: before, After: after}, nil
}

// Commit makes t durable. On a file-backed medium the append can fail; the
// transaction is then NOT committed.
func (db *DB) Commit(t model.TxnID) error {
	if _, err := db.medium.append(Record{Kind: Commit, Txn: t}); err != nil {
		return err
	}
	db.markCommitted(t)
	db.retireLive(t)
	return nil
}

// CommitGroup makes all of ids durable with ONE log record. Commit groups
// exist because value dependencies can cycle between finished transactions
// (the paper's commitment-chaining observation, Section 6); members may
// have observed each other's values, so their durability must be atomic:
// a torn tail that kept some members' commits but not others' would leave
// a committed winner depending on an uncommitted loser, which recovery
// rejects. One record keeps the group indivisible under any prefix.
func (db *DB) CommitGroup(ids []model.TxnID) error {
	if len(ids) == 0 {
		return nil
	}
	if _, err := db.medium.append(Record{Kind: Commit, Txn: ids[0], Group: append([]model.TxnID(nil), ids[1:]...)}); err != nil {
		return err
	}
	for _, t := range ids {
		db.markCommitted(t)
		db.retireLive(t)
	}
	return nil
}

// Abort fully rolls back the transactions in set; the set must be closed
// under value dependencies, exactly as in storage.Store.
func (db *DB) Abort(set map[model.TxnID]bool) error {
	keep := make(map[model.TxnID]int, len(set))
	for t := range set {
		keep[t] = 0
	}
	return db.AbortSuffix(keep)
}

// AbortSuffix rolls each transaction in keep back to its given sequence
// number (0 = full abort), logging each physical undo as a compensation
// record and finishing with an Abort marker. The step-granular
// dependency-closure requirement of storage.Store.AbortSuffix applies.
func (db *DB) AbortSuffix(keep map[model.TxnID]int) error {
	var recs []Record
	for t, k := range keep {
		for _, r := range db.live[t] {
			if r.Seq > k {
				recs = append(recs, r)
			}
		}
	}
	sortByLSNDesc(recs)
	var unsound error
	for _, u := range recs {
		if u.Before != u.After {
			if cur := db.vals[u.Entity]; cur != u.After && unsound == nil {
				unsound = fmt.Errorf("wal: abort set not dependency-closed at %s seq %d", u.Txn, u.Seq)
			}
			db.vals[u.Entity] = u.Before
		}
		if _, err := db.medium.append(Record{Kind: Compensation, Txn: u.Txn, Seq: u.Seq, Entity: u.Entity, Before: u.After, After: u.Before}); err != nil {
			// The volatile undo already happened; the CLR is lost. The
			// medium is degraded — a crash now re-undoes from the original
			// updates, which is idempotent for recovery, so surfacing the
			// error (and stopping all further writes) is the right move.
			return err
		}
	}
	// Markers in id order, not map order: the log of a rollback must be a
	// function of the run, or a crash point counted into the middle of the
	// markers would not replay from its seed.
	for _, t := range model.SortedKeys(keep) {
		k := keep[t]
		var kept []Record
		for _, r := range db.live[t] {
			if r.Seq <= k {
				kept = append(kept, r)
			}
		}
		if _, err := db.medium.append(Record{Kind: Abort, Txn: t, Keep: k}); err != nil {
			return err
		}
		if len(kept) == 0 {
			db.retireLive(t)
		} else {
			db.live[t] = kept
		}
	}
	return unsound
}

// CheckpointCompact archives what changed since the previous checkpoint —
// one frame, however much was ever committed — and truncates the log behind
// it: on a file-backed medium every segment is deleted, in memory the record
// cache dropped. Recovery replay is bounded by the distance to this
// checkpoint from then on. The checkpoint is quiescent: it returns an error
// when transactions are in flight (the simplest sound discipline).
func (db *DB) CheckpointCompact() error {
	ck, err := db.capture()
	if ck == nil {
		return err
	}
	// A synchronous caller may not have flushed what it logged: written
	// now, it is deleted with the rest instead of trailing the checkpoint
	// into the fresh segment.
	if err := db.Sync(); err != nil {
		return err
	}
	return db.medium.backing.compact(ck)
}

// capture is the in-memory half of a checkpoint, O(what changed) and free
// of I/O: it builds the archive frame for the current end of the log and
// moves the medium's cache behind it; fileBacking.compact, the disk half,
// touches no DB state. nil, nil when nothing was logged since the last
// frame.
func (db *DB) capture() (*Record, error) {
	if len(db.live) > 0 {
		return nil, fmt.Errorf("wal: checkpoint requires quiescence (%d active transactions)", len(db.live))
	}
	m := db.medium
	if len(m.records) == 0 {
		return nil, nil
	}
	ck := &Record{LSN: m.nextLSN - 1, Kind: Checkpoint,
		Snapshot: make(map[model.EntityID]model.Value), Done: append([]model.TxnID(nil), db.fresh...)}
	for _, x := range db.dirty {
		ck.Snapshot[x] = db.vals[x]
	}
	ck.Sum = ck.checksum()
	db.fresh, db.dirty = db.fresh[:0], db.dirty[:0]
	m.archive, m.archived = append(m.archive, *ck), ck.LSN
	m.records = m.records[:0] // stale references are overwritten within a checkpoint interval
	return ck, nil
}

func (db *DB) markCommitted(t model.TxnID) {
	if !db.committed[t] {
		db.committed[t] = true
		db.fresh = append(db.fresh, t)
	}
}

// Live returns the number of transactions with un-undone live updates —
// zero means the log is quiescent and a checkpoint may run.
func (db *DB) Live() int { return len(db.live) }

// RecordsSinceCheckpoint is the recovery replay bound: how many records a
// restart would redo past the latest checkpoint (the whole log if none
// exists).
func (db *DB) RecordsSinceCheckpoint() int { return len(db.medium.records) }

// Crash simulates losing all volatile state: it returns the durable medium,
// from which Open recovers a fresh DB. The old DB must not be used again.
func (db *DB) Crash() *Medium { return db.medium }

// LogLen returns the number of durable records, without the copying of
// Records(); a crash's torn tail is capped by what the round appended.
func (db *DB) LogLen() int { return db.medium.Len() }

// Sync flushes the underlying medium; see Medium.Sync. Unbatched commit
// paths call this once per commit record, the group-commit Pipeline once
// per flushed batch.
func (db *DB) Sync() error { return db.medium.Sync() }

// Stats is a point-in-time snapshot of the log, returned by DB.Snapshot.
// Like every Snapshot() in this codebase (lock, sched, net), the returned
// struct is a value copy: it never aliases live state, stays valid forever,
// and mutating it has no effect on the DB.
type Stats struct {
	// Records is the durable log length.
	Records int
	// Commits is the number of transactions durably committed.
	Commits int
	// Live is the number of transactions with un-undone live updates.
	Live int
	// Syncs is the number of device flushes performed.
	Syncs int64
}

// Snapshot returns a value-copy of the log's counters; see Stats for the
// immutability contract.
func (db *DB) Snapshot() Stats {
	return Stats{
		Records: db.medium.Len(),
		Commits: len(db.committed),
		Live:    len(db.live),
		Syncs:   db.medium.Syncs(),
	}
}
