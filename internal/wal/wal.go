// Package wal adds durability to the entity store: a write-ahead log on a
// simulated durable medium, checkpoints, crash injection, and restart
// recovery. The volatile state is a storage.Store; the log records what it
// does. The paper's Section 1 separates three roles of a transaction —
// logical unit, unit of atomicity, unit of recovery — and this package
// realizes the recovery role across crashes: committed transactions
// survive, in-flight transactions are rolled back on restart.
//
// The design follows the standard write-ahead discipline with compensation
// log records (CLRs): every physical undo performed by the store's rollback
// loop is itself logged, so recovery is a single forward redo pass (updates
// as store steps, compensations as one-record rollbacks) followed by the
// rollback of loser transactions, through the same loop Abort runs.
// Recovery is idempotent — recovering an already-recovered log changes
// nothing.
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
	"maps"
	"sync/atomic"
	"time"

	"mla/internal/fault"
	"mla/internal/model"
	"mla/internal/storage"
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

// DB is the recoverable store: the log around a storage.Store, which holds
// the volatile state — the values and every live update — and runs the one
// rollback loop.
type DB struct {
	medium    *Medium
	store     *storage.Store
	committed map[model.TxnID]bool
	// The next archive frame's content: the ids committed and the entities
	// written (one entry per Update, repeats included) since the last one.
	fresh []model.TxnID
	dirty []model.EntityID
	// logged hands the store the after-image of an update already in the
	// log, so installing the step does not call its function a second time.
	after  model.Value
	logged func(model.Value) (model.Value, string)
}

// Open mounts a DB on the medium, running recovery if it is nonempty. init
// provides the values of a fresh database; the archive overrides the
// entities it names. Mounting is a reboot: a crash latch is cleared.
func Open(m *Medium, init map[model.EntityID]model.Value) (*DB, error) {
	m.crashed = false
	db := &DB{medium: m, committed: make(map[model.TxnID]bool)}
	db.logged = func(model.Value) (model.Value, string) { return db.after, "" }
	if err := db.recover(init); err != nil {
		return nil, err
	}
	return db, nil
}

// recover folds the checkpoint archive over init (values, committed set)
// into the store, redoes every update and compensation of the log past it
// in order, then rolls back the losers (transactions with live updates but
// no Commit) as Abort does, logging fresh compensations plus Abort markers.
func (db *DB) recover(init map[model.EntityID]model.Value) error {
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
	vals := make(map[model.EntityID]model.Value, len(init))
	maps.Copy(vals, init)
	for _, a := range archive {
		maps.Copy(vals, a.Snapshot)
		for _, t := range a.Done {
			db.committed[t] = true
		}
	}
	db.store = storage.New(vals)
	for _, r := range records {
		switch r.Kind {
		case Update:
			if cur := db.store.Get(r.Entity); cur != r.Before {
				return fmt.Errorf("wal: redo mismatch at lsn %d: %s expected %d, found %d",
					r.LSN, r.Entity, r.Before, cur)
			}
			db.install(r.Txn, r.Seq, r.Entity, r.After)
		case Compensation:
			if err := db.redoCompensation(r); err != nil {
				return err
			}
		case Commit:
			db.commit(r.Txn)
			for _, t := range r.Group {
				db.commit(t)
			}
		case Abort:
			// Marker only; the physical work was logged as compensations.
		default:
			return fmt.Errorf("wal: %s record at lsn %d does not belong in the log", r.Kind, r.LSN)
		}
	}
	losers := make(map[model.TxnID]int)
	for _, t := range db.store.InFlight() {
		if db.committed[t] {
			return fmt.Errorf("wal: committed transaction %s has live updates", t)
		}
		losers[t] = 0
	}
	if len(losers) == 0 {
		return nil
	}
	unsound, err := db.rollback(losers, db.medium.put)
	if err != nil {
		return fmt.Errorf("wal: recovery undo: %w", err)
	}
	if unsound != nil {
		return fmt.Errorf("wal: loser undo mismatch, a committed transaction observed an uncommitted value: %w", unsound)
	}
	return nil
}

// redoCompensation redoes one logged undo as a one-record suffix rollback of
// its transaction, which must reach exactly the update the record names.
func (db *DB) redoCompensation(c Record) error {
	var mismatch error
	cancelled := false
	db.store.OnUndo = func(u model.Step) error {
		if cancelled || u.Seq != c.Seq || u.Entity != c.Entity || u.Before != c.After || u.After != c.Before {
			mismatch = fmt.Errorf("wal: compensation at lsn %d cancels %s seq %d on %s but the rollback reached seq %d on %s",
				c.LSN, c.Txn, c.Seq, c.Entity, u.Seq, u.Entity)
			return mismatch
		}
		cancelled = true
		return nil
	}
	err := db.store.AbortSuffix(map[model.TxnID]int{c.Txn: c.Seq - 1})
	db.store.OnUndo = nil
	switch {
	case mismatch != nil:
		return mismatch
	case err != nil:
		return fmt.Errorf("wal: compensation redo mismatch at lsn %d: %w", c.LSN, err)
	case !cancelled:
		return fmt.Errorf("wal: compensation at lsn %d without a live update for %s", c.LSN, c.Txn)
	}
	return nil
}

// Values returns a copy of the current state.
func (db *DB) Values() map[model.EntityID]model.Value { return db.store.Values() }

// Committed reports whether t has a durable commit.
func (db *DB) Committed(t model.TxnID) bool { return db.committed[t] }

// Perform executes one atomic step WAL-first: the update record is logged
// (so durable no later than any later record) before the step enters the
// store.
func (db *DB) Perform(t model.TxnID, seq int, x model.EntityID, f func(model.Value) (model.Value, string)) (model.Step, error) {
	if db.committed[t] {
		return model.Step{}, fmt.Errorf("wal: %s already committed", t)
	}
	before := db.store.Get(x)
	after, label := f(before)
	if _, err := db.medium.append(Record{Kind: Update, Txn: t, Seq: seq, Entity: x, Before: before, After: after}); err != nil {
		// WAL-first means a failed append changes nothing volatile: the
		// step did not happen (or, at a crash point, the system died with
		// its record durable, and recovery undoes it).
		return model.Step{}, err
	}
	db.install(t, seq, x, after)
	return model.Step{Txn: t, Seq: seq, Entity: x, Label: label, Before: before, After: after}, nil
}

// install enters a logged update into the store as a step of t.
func (db *DB) install(t model.TxnID, seq int, x model.EntityID, after model.Value) {
	db.after = after
	db.store.Perform(t, seq, x, db.logged)
	db.dirty = append(db.dirty, x)
}

// Commit makes t durable. On a file-backed medium the append can fail; the
// transaction is then NOT committed.
func (db *DB) Commit(t model.TxnID) error {
	if _, err := db.medium.append(Record{Kind: Commit, Txn: t}); err != nil {
		return err
	}
	db.commit(t)
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
		db.commit(t)
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
// number (0 = full abort) through storage.Store.AbortSuffix, whose
// step-granular dependency-closure check applies, logging each physical undo
// as a compensation record and finishing with Abort markers.
func (db *DB) AbortSuffix(keep map[model.TxnID]int) error {
	unsound, err := db.rollback(keep, db.medium.append)
	if err != nil {
		return err
	}
	return unsound
}

// rollback is what AbortSuffix and recovery's loser pass share: the store's
// undo loop over keep, logging each undo through write (Medium.append
// online, the uncounted Medium.put in recovery) as a compensation just
// before the loop performs it, then one Abort marker per transaction. A
// failed write stops it: the medium is degraded, and a crash re-undoes from
// the original updates, which recovery does idempotently. unsound is the
// store's dependency-closure error.
func (db *DB) rollback(keep map[model.TxnID]int, write func(Record) (Record, error)) (unsound, err error) {
	db.store.OnUndo = func(u model.Step) error {
		_, err = write(Record{Kind: Compensation, Txn: u.Txn, Seq: u.Seq, Entity: u.Entity, Before: u.After, After: u.Before})
		return err
	}
	unsound = db.store.AbortSuffix(keep)
	db.store.OnUndo = nil
	if err != nil {
		return nil, err
	}
	// Markers in id order, not map order: the log of a rollback must be a
	// function of the run, or a crash point counted into the middle of the
	// markers would not replay from its seed.
	for _, t := range model.SortedKeys(keep) {
		if _, err := write(Record{Kind: Abort, Txn: t, Keep: keep[t]}); err != nil {
			return nil, err
		}
	}
	return unsound, nil
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
	if n := db.Live(); n > 0 {
		return nil, fmt.Errorf("wal: checkpoint requires quiescence (%d active transactions)", n)
	}
	m := db.medium
	if len(m.records) == 0 {
		return nil, nil
	}
	ck := &Record{LSN: m.nextLSN - 1, Kind: Checkpoint,
		Snapshot: make(map[model.EntityID]model.Value), Done: append([]model.TxnID(nil), db.fresh...)}
	for _, x := range db.dirty {
		ck.Snapshot[x] = db.store.Get(x)
	}
	ck.Sum = ck.checksum()
	db.fresh, db.dirty = db.fresh[:0], db.dirty[:0]
	m.archive, m.archived = append(m.archive, *ck), ck.LSN
	m.records = m.records[:0] // stale references are overwritten within a checkpoint interval
	return ck, nil
}

// commit marks t durably committed and makes its updates permanent in the
// store.
func (db *DB) commit(t model.TxnID) {
	db.store.Commit(t)
	if !db.committed[t] {
		db.committed[t] = true
		db.fresh = append(db.fresh, t)
	}
}

// Live returns the number of transactions with un-undone live updates —
// zero means the log is quiescent and a checkpoint may run.
func (db *DB) Live() int { return db.store.PendingTxns() }

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
		Live:    db.Live(),
		Syncs:   db.medium.Syncs(),
	}
}
