// Package fault is a seeded, deterministic fault-injection layer for the
// executors. The paper's Section 1 names the transaction as a *unit of
// recovery*; making that role testable requires failures that are
// first-class and reproducible rather than ad-hoc. A Plan describes which
// faults to inject — system crashes keyed to WAL-append counts or a
// wall-clock budget, torn durable tails, transient step errors the engine
// must retry, and dropped or extra-delayed distributed bus messages — and
// an Injector executes the plan deterministically: every decision is a pure
// function of the plan's seed and the event's identity (transaction, step,
// attempt, retry, or a global counter), so a failing run replays exactly.
//
// The Injector is safe for concurrent use: the engine consults it from one
// goroutine per transaction. One Injector spans all rounds of a
// crash-recovery run, so each configured crash fires exactly once and the
// run provably converges once the plan is exhausted.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"mla/internal/model"
)

// ErrCrash is the sentinel for an injected whole-system crash: all volatile
// state (schedulers, in-flight transactions, value caches) is lost and only
// the durable medium survives. engine.RunWithCrashes recognizes it and runs
// recovery instead of failing the plan.
var ErrCrash = errors.New("fault: injected crash")

// TransientError is an injected, retryable step failure — the model of a
// lost message or timed-out I/O. The step was NOT performed; the engine
// retries it with capped exponential backoff.
type TransientError struct {
	Txn model.TxnID
	Seq int
	Try int // 0 = first attempt at this step
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("fault: transient error at %s seq %d (try %d)", e.Txn, e.Seq, e.Try)
}

// ErrDiskFull is the persistent out-of-space error: unlike a DiskError it
// does not clear on retry, so the durable medium must give up immediately
// and the service above it must degrade rather than spin.
var ErrDiskFull = errors.New("fault: injected disk full")

// DiskError is an injected, transient disk I/O failure (a failed or short
// write, or a failed fsync). The durable medium retries the operation with
// capped backoff; every retry re-flips an independent coin, so at rates
// below 1 the operation eventually lands.
type DiskError struct {
	Op string // "write", "short-write", "fsync"
	N  int64  // per-op sequence number of the faulted call
}

func (e *DiskError) Error() string {
	return fmt.Sprintf("fault: injected disk %s error (op %d)", e.Op, e.N)
}

// Plan describes the faults to inject. The zero value injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision. Two injectors built from
	// equal plans make identical decisions for identical event identities.
	Seed int64

	// CrashAppends lists cumulative WAL-append counts at which the system
	// crashes: the Nth durable append (update, compensation, abort and
	// commit records alike, counted across recovery rounds by the WAL
	// medium that holds the injector; recovery's own appends excluded)
	// triggers ErrCrash. Each entry fires once; entries are sorted
	// internally.
	CrashAppends []int64

	// CrashAfter, when positive, crashes the system once after this much
	// wall-clock time in the engine. It fires at most once per Injector.
	CrashAfter time.Duration

	// TearTail drops the last TearTail records from the durable medium at
	// each crash — a torn write: records the engine believed durable never
	// reached the device. The WAL discipline makes any prefix a consistent
	// recovery input, which the recovery path (and FuzzWALRecovery) assert.
	TearTail int

	// StepErrorRate is the probability in [0, 1] that a step attempt fails
	// with a TransientError before reaching the store. At 1.0 every try
	// fails, which exercises the retry cap and the restart budget.
	StepErrorRate float64

	// NetDropRate is the probability that an individual bus message of the
	// distributed control (boundary, finish, ack, heartbeat, probe, or sync
	// traffic — see internal/net) is lost. Loss is safe end to end:
	// boundary announcements only under-report remote progress, finishes
	// are retransmitted until acknowledged, and heartbeat loss at worst
	// makes the failure detector suspect a live peer — which costs aborts,
	// never wrong admissions.
	NetDropRate float64

	// NetDelayRate is the probability that a bus message takes
	// NetExtraDelay additional time units — enough extra reorders it
	// behind later traffic.
	NetDelayRate float64

	// NetExtraDelay is the extra latency applied to delayed bus messages.
	NetExtraDelay int64

	// Partitions are named network partitions applied on the simulated
	// clock by the distributed control's chaos harness (internal/dist).
	Partitions []Partition

	// ProcCrashes are processor crash windows: at At the processor loses
	// its volatile scheduler state (views, wait records, and the
	// transactions resident on it); at Rejoin it comes back empty and
	// rebuilds its views by anti-entropy resync from its peers.
	ProcCrashes []ProcCrash

	// DiskWriteErrRate is the probability that a durable-medium write call
	// fails outright with a transient DiskError (no bytes reach the file).
	DiskWriteErrRate float64

	// DiskShortWriteRate is the probability that a write lands only
	// partially: the medium is told to persist a strict prefix of the
	// buffer and sees a DiskError, so it must re-write the whole frame at
	// the same offset — and a crash between the two leaves a torn frame
	// the loader has to truncate away.
	DiskShortWriteRate float64

	// DiskSyncErrRate is the probability that an fsync fails transiently.
	// Until a retried fsync succeeds, nothing since the previous sync is
	// durable — group-commit acks must not be released.
	DiskSyncErrRate float64

	// DiskFullAfter, when positive, is the total byte budget of the device:
	// once cumulative persisted bytes reach it, every further write fails
	// with ErrDiskFull (persistent — retries do not help).
	DiskFullAfter int64

	// DiskStallRate is the probability that a disk call (write or fsync)
	// stalls for DiskStall before proceeding — a latency spike, not an
	// error.
	DiskStallRate float64

	// DiskStall is the extra latency applied to stalled disk calls.
	DiskStall time.Duration
}

// Partition describes one named partition window. While active, processors
// on different sides cannot exchange any message.
type Partition struct {
	Name  string
	At    int64
	Heal  int64   // 0 = never heals
	Sides [][]int // processor groups; empty = split into two halves
}

// ProcCrash describes one processor crash window.
type ProcCrash struct {
	Proc   int
	At     int64
	Rejoin int64 // 0 = stays down forever
}

// DiskEnabled reports whether the plan injects any disk faults.
func (p Plan) DiskEnabled() bool {
	return p.DiskWriteErrRate > 0 || p.DiskShortWriteRate > 0 ||
		p.DiskSyncErrRate > 0 || p.DiskFullAfter > 0 || p.DiskStallRate > 0
}

// Crashes returns the total number of crashes the plan can inject — the
// bound on recovery rounds a crash-tolerant run needs.
func (p Plan) Crashes() int {
	n := len(p.CrashAppends)
	if p.CrashAfter > 0 {
		n++
	}
	return n
}

// Injector executes a Plan. Create one per crash-tolerant run and share it
// across recovery rounds.
type Injector struct {
	plan Plan

	mu         sync.Mutex
	appends    int64
	crashIdx   int              // next unfired entry of plan.CrashAppends
	wallArmed  bool             // CrashAfter not yet handed out
	netN       map[string]int64 // per-kind bus message counters
	diskWrites int64            // write calls seen (coin identity)
	diskSyncs  int64            // fsync calls seen (coin identity)
	diskBytes  int64            // bytes persisted (ErrDiskFull budget)
}

// New builds an injector for the plan.
func New(p Plan) *Injector {
	crashes := append([]int64(nil), p.CrashAppends...)
	sort.Slice(crashes, func(i, j int) bool { return crashes[i] < crashes[j] })
	p.CrashAppends = crashes
	return &Injector{plan: p, wallArmed: p.CrashAfter > 0, netN: make(map[string]int64)}
}

// Plan returns the injector's plan (crash points sorted).
func (i *Injector) Plan() Plan { return i.plan }

// OnAppend counts one durable WAL append and reports whether the system
// crashes now. Each configured crash point fires exactly once. The WAL
// medium (wal.Medium.Faults) is its caller.
func (i *Injector) OnAppend() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.appends++
	if i.crashIdx < len(i.plan.CrashAppends) && i.appends >= i.plan.CrashAppends[i.crashIdx] {
		i.crashIdx++
		return true
	}
	return false
}

// Appends returns the number of durable appends counted so far.
func (i *Injector) Appends() int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.appends
}

// ArmWallClock hands out the wall-clock crash budget at most once: the
// first caller receives (CrashAfter, true) and must crash the system when
// the budget elapses; later callers receive false.
func (i *Injector) ArmWallClock() (time.Duration, bool) {
	if i == nil {
		return 0, false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.wallArmed {
		return 0, false
	}
	i.wallArmed = false
	return i.plan.CrashAfter, true
}

// TearTail returns how many trailing records each crash tears off the
// durable medium.
func (i *Injector) TearTail() int {
	if i == nil {
		return 0
	}
	return i.plan.TearTail
}

// StepError decides whether transaction t's step seq fails transiently on
// its try-th retry during the given attempt. Deterministic in (seed, txn,
// seq, attempt, try); at rates below 1 a retried step eventually succeeds
// because every try re-flips an independent coin.
func (i *Injector) StepError(t model.TxnID, seq, attempt, try int) error {
	if i == nil || i.plan.StepErrorRate <= 0 {
		return nil
	}
	if !i.coin(i.plan.StepErrorRate, fmt.Sprintf("step/%s/%d/%d/%d", t, seq, attempt, try)) {
		return nil
	}
	return &TransientError{Txn: t, Seq: seq, Try: try}
}

// Net decides the fate of one bus message of the given kind: dropped, or
// delivered with extra latency (which reorders it past later traffic).
// Deterministic in (seed, kind, per-kind counter), so equal plans driving
// equal message sequences make identical decisions.
func (i *Injector) Net(kind string) (drop bool, extra int64) {
	if i == nil || (i.plan.NetDropRate <= 0 && i.plan.NetDelayRate <= 0) {
		return false, 0
	}
	i.mu.Lock()
	n := i.netN[kind]
	i.netN[kind] = n + 1
	i.mu.Unlock()
	key := fmt.Sprintf("net/%s/%d", kind, n)
	if i.coin(i.plan.NetDropRate, "drop/"+key) {
		return true, 0
	}
	if i.coin(i.plan.NetDelayRate, "delay/"+key) {
		return false, i.plan.NetExtraDelay
	}
	return false, 0
}

// DiskWrite decides the fate of one durable-medium write of n bytes. It
// returns how many bytes the medium may hand to the OS and, when fewer
// than n (or zero), the error the medium must surface after persisting
// that prefix. Decisions are deterministic in (seed, per-call counter);
// each retry is a new call with a new counter, so transient faults clear.
// ErrDiskFull is persistent: once the byte budget is exhausted every call
// fails without consuming coin flips.
func (i *Injector) DiskWrite(n int) (int, error) {
	if i == nil || !i.plan.DiskEnabled() {
		return n, nil
	}
	i.mu.Lock()
	seq := i.diskWrites
	i.diskWrites++
	full := i.plan.DiskFullAfter > 0 && i.diskBytes >= i.plan.DiskFullAfter
	i.mu.Unlock()
	if full {
		return 0, ErrDiskFull
	}
	key := fmt.Sprintf("disk/write/%d", seq)
	if i.coin(i.plan.DiskStallRate, "stall/"+key) && i.plan.DiskStall > 0 {
		time.Sleep(i.plan.DiskStall)
	}
	if i.coin(i.plan.DiskWriteErrRate, "err/"+key) {
		return 0, &DiskError{Op: "write", N: seq}
	}
	allowed := n
	var err error
	if n > 1 && i.coin(i.plan.DiskShortWriteRate, "short/"+key) {
		// A strict prefix, at least one byte, position derived from the
		// same hash so the tear point replays.
		allowed = 1 + int(hash64(fmt.Sprintf("%d/cut/%s", i.plan.Seed, key))%uint64(n-1))
		err = &DiskError{Op: "short-write", N: seq}
	}
	i.mu.Lock()
	i.diskBytes += int64(allowed)
	i.mu.Unlock()
	return allowed, err
}

// DiskSync decides the fate of one fsync of the durable medium.
func (i *Injector) DiskSync() error {
	if i == nil || !i.plan.DiskEnabled() {
		return nil
	}
	i.mu.Lock()
	seq := i.diskSyncs
	i.diskSyncs++
	i.mu.Unlock()
	key := fmt.Sprintf("disk/sync/%d", seq)
	if i.coin(i.plan.DiskStallRate, "stall/"+key) && i.plan.DiskStall > 0 {
		time.Sleep(i.plan.DiskStall)
	}
	if i.coin(i.plan.DiskSyncErrRate, "err/"+key) {
		return &DiskError{Op: "fsync", N: seq}
	}
	return nil
}

// DiskOps returns how many write calls, fsync calls and persisted bytes the
// injector has seen (counted only while the plan injects disk faults).
func (i *Injector) DiskOps() (writes, syncs, bytes int64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.diskWrites, i.diskSyncs, i.diskBytes
}

// coin flips a deterministic biased coin: true with probability rate.
func (i *Injector) coin(rate float64, key string) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := hash64(fmt.Sprintf("%d/%s", i.plan.Seed, key))
	// Map the hash to [0, 1) with 53 usable bits.
	u := float64(h>>11) / float64(1<<53)
	return u < rate
}

// hash64 is FNV-1a with an avalanche finalizer (FNV alone disperses short
// keys poorly in the high bits, which the coin mapping uses). Inlined to
// keep the package dependency-free.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
