package wal

// The file-backed durable medium: a directory of length-prefixed record
// segments, the checkpoint archive (same framing, one frame per compaction,
// append-only) and a boot-epoch counter. The format is deliberately dumb —
// every frame is [u32 big-endian payload length][JSON payload], and the
// payload carries the same per-record FNV checksum the in-memory medium
// computes, so torn tails and bit rot are detected by the record's own
// integrity machinery rather than a second framing CRC.
//
// Torn-tail policy (the etcd WAL discipline): an undecodable frame in the
// LAST segment marks the write the process died inside, or where fresh
// frames stop overwriting a recycled log (compact) — everything from there
// on is truncated away and the log is a (consistent, by the WAL rule)
// prefix. An undecodable frame in any EARLIER segment means bytes
// the log already moved past went bad — that is corruption, and Open
// fails loudly instead of replaying around it.
//
// The archive gets the same policy within its one file: an undecodable
// frame that runs to the end of the file is the compaction the process died
// inside and is truncated; one with bytes after it is corruption.
//
// Log buffer. append only encodes a frame into memory; sync (and rotate,
// close) swaps the buffer out, writes it as one chunk, then fsyncs. The
// durability contract every caller relies on:
//
//  1. A segment's bytes, up to the first frame that fails its checksum or
//     the LSN order, are always a prefix of append (LSN) order.
//  2. sync returns nil only after an fsync covering every record appended
//     before the call: an ack covers its commit record and all earlier ones.
//  3. A write or fsync failure surfaces at the flush, not at the append, and
//     latches ErrDegraded: no later chunk is written, so no group in or
//     after the failed chunk is ever acked.
//  4. A retried chunk is rewritten whole at the same offset, so the only
//     torn state is a partial tail frame, which the loader truncates.
//  5. close flushes.
//  6. An archive frame is written and fsynced BEFORE any segment it covers
//     is deleted or overwritten, and segment bytes reach a file only
//     together with their fsync: whatever a crash leaves, every record is
//     in a segment or under a frame. The loader skips (never redoes) segment
//     records at or below the archive's last LSN and requires the first one
//     above it to be the very next LSN, so a lost frame fails the mount
//     instead of leaving a hole.
//
// Every write and fsync passes through an optional fault.Injector, which
// can fail it transiently, shorten it, stall it, or declare the disk
// full. Transient faults are retried with capped backoff; a persistent
// failure (disk full, retries exhausted) latches the backing into a
// degraded state where every further append and flush fails fast wrapping
// ErrDegraded.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"mla/internal/fault"
	"mla/internal/model"
)

// FileOptions configures OpenFile.
type FileOptions struct {
	// SegmentBytes rotates to a new segment once the active one reaches
	// this size (default 1 MiB). A frame never spans segments.
	SegmentBytes int64
	// Faults, when non-nil, sits between the medium and the OS: every
	// write and fsync consults it first. Nil injects nothing.
	Faults *fault.Injector
}

// RecoveryInfo reports what loading a file-backed medium found.
type RecoveryInfo struct {
	// Epoch is the boot count of this data directory, starting at 1. It
	// is bumped (durably) on every OpenFile, so identifiers derived from
	// it never collide across restarts.
	Epoch int64
	// Records is how many durable frames survived the load: the archive's
	// plus the log records past it.
	Records int
	// SinceCheckpoint is how many of those are log records past the
	// archive — the replay work recovery actually had to redo.
	SinceCheckpoint int
	// TornBytes is how many trailing bytes of the last segment (and of the
	// archive) were truncated as a torn write or a recycled log's remainder.
	TornBytes int64
	// Segments is the number of on-disk segments after the load.
	Segments int
}

const (
	defaultSegmentBytes = 1 << 20
	maxFrameBytes       = 64 << 20 // sanity bound on a length prefix
	segPrefix           = "seg-"
	segSuffix           = ".wal"
	archiveFile         = "archive.ckpt"
	epochFile           = "epoch"

	diskRetries    = 8
	diskBackoffMin = 200 * time.Microsecond
	diskBackoffMax = 10 * time.Millisecond
)

// OpenFile mounts (creating if needed) the segmented log in dir and
// returns a Medium whose appends are buffered for it and persisted by the
// next Sync. The load verifies every record's checksum, truncates a torn
// tail of the last segment in place, and refuses mid-log corruption. The
// caller passes the result to Open for WAL recovery as usual.
func OpenFile(dir string, o FileOptions) (*Medium, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	epoch, err := bumpEpoch(dir)
	if err != nil {
		return nil, err
	}
	b := &fileBacking{dir: dir, segBytes: o.SegmentBytes, inj: o.Faults}
	m := NewMedium()
	if err := b.load(m); err != nil {
		return nil, err
	}
	m.backing = b
	m.info.Epoch = epoch
	m.info.Records = len(m.archive) + len(m.records)
	m.info.SinceCheckpoint = len(m.records)
	m.info.Segments = len(b.segs)
	m.info.TornBytes = b.tornBytes
	return m, nil
}

// bumpEpoch durably increments the data directory's boot counter. The new
// value is written beside the old one and renamed over it, so a crash at
// any point leaves an intact epoch file (a stale epoch.tmp is overwritten).
func bumpEpoch(dir string) (int64, error) {
	path := filepath.Join(dir, epochFile)
	var epoch int64
	if raw, err := os.ReadFile(path); err == nil {
		n, perr := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
		if perr != nil {
			return 0, fmt.Errorf("wal: %s: unparseable epoch %q", path, raw)
		}
		epoch = n
	} else if !errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("wal: %w", err)
	}
	epoch++
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	_, err = fmt.Fprintf(f, "%d\n", epoch)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		return 0, fmt.Errorf("wal: epoch: %w", err)
	}
	return epoch, syncDir(dir)
}

// fileBacking is the on-disk side of a Medium. mu is a leaf guarding the
// log buffer and the failure latch; it is never held across a syscall. io
// alone orders file operations (lock order io → mu), so appends continue
// while a flush is on the device and no lock above the medium is ever held
// across a write or fsync.
type fileBacking struct {
	dir      string
	segBytes int64
	inj      *fault.Injector

	mu      sync.Mutex
	pending []byte // frames appended since the last flush
	failed  error  // latched persistent failure

	io        sync.Mutex
	chunk     []byte   // the buffer being written; swapped with pending
	f         *os.File // active segment
	segIndex  int64    // its index
	off       int64    // good (fully framed) offset within it
	segs      []int64  // all segment indices, ascending
	arch      *os.File // checkpoint archive
	archOff   int64    // good offset within it
	tornBytes int64    // truncated at load
}

func segName(idx int64) string { return fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix) }

// load reads the archive into m.archive and every segment record past it
// into m.records, truncating a torn tail of the archive and of the last
// segment, and leaves the backing positioned to append after them.
func (b *fileBacking) load(m *Medium) error {
	if err := b.loadArchive(m); err != nil {
		return err
	}
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		idx, perr := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if perr != nil {
			return fmt.Errorf("wal: unrecognized segment name %q", name)
		}
		b.segs = append(b.segs, idx)
	}
	sort.Slice(b.segs, func(i, j int) bool { return b.segs[i] < b.segs[j] })

	archived, prevLSN := m.archived, int64(0)
	for si, idx := range b.segs {
		path := filepath.Join(b.dir, segName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		last := si == len(b.segs)-1
		good, recs, derr := decodeFrames(data, prevLSN)
		if derr != nil && !last {
			return fmt.Errorf("wal: segment %s: %w (mid-log, not a torn tail)", segName(idx), derr)
		}
		if derr != nil {
			// Torn tail of the final segment: truncate it away in place so
			// the next append lands on a clean frame boundary and a second
			// load sees an identical log (idempotent repair).
			b.tornBytes += int64(len(data)) - good
			if err := os.Truncate(path, good); err != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", segName(idx), err)
			}
		}
		for _, r := range recs {
			prevLSN = r.LSN
			if r.LSN <= archived {
				// Behind the archive (invariant 6): a compaction that died
				// before its unlinks, or a flush that raced one.
				continue
			}
			if len(m.records) == 0 && r.LSN != archived+1 {
				return fmt.Errorf("wal: segment %s resumes at lsn %d but the archive ends at %d: archive frames are missing",
					segName(idx), r.LSN, archived)
			}
			m.records = append(m.records, r)
		}
		if last {
			b.segIndex = idx
			b.off = good
		}
	}
	// An unsynced segment tail can be lost behind a durable archive frame.
	m.nextLSN = max(prevLSN, archived) + 1
	if len(b.segs) == 0 {
		return b.create(1)
	}
	f, err := os.OpenFile(filepath.Join(b.dir, segName(b.segIndex)), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	b.f = f
	return nil
}

// loadArchive opens the checkpoint archive, creating it empty in a directory
// that has none (compact syncs the directory with the first frame), and
// reads it into m.archive.
func (b *fileBacking) loadArchive(m *Medium) (err error) {
	if b.arch, err = os.OpenFile(filepath.Join(b.dir, archiveFile), os.O_CREATE|os.O_RDWR, 0o644); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	data, err := io.ReadAll(b.arch)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	good, frames, derr := decodeFrames(data, 0)
	if derr != nil {
		// The frame that failed is torn only if nothing follows it.
		rest := data[good:]
		if len(rest) >= 4 {
			if n := int64(binary.BigEndian.Uint32(rest)); n > 0 && 4+n < int64(len(rest)) {
				return fmt.Errorf("wal: %s: %w (mid-archive, not a torn tail)", archiveFile, derr)
			}
		}
		b.tornBytes = int64(len(rest))
		if err := b.arch.Truncate(good); err != nil {
			return fmt.Errorf("wal: truncating torn tail of %s: %w", archiveFile, err)
		}
	}
	m.archive, b.archOff = frames, good
	if n := len(frames); n > 0 {
		m.archived = frames[n-1].LSN
	}
	return nil
}

// decodeFrames walks one segment's bytes. It returns the offset after the
// last fully decoded frame, the records, and a non-nil error describing
// the first undecodable frame (torn or rotted — the caller decides which
// by segment position). LSNs must strictly increase from prev.
func decodeFrames(data []byte, prev int64) (int64, []Record, error) {
	var recs []Record
	off := int64(0)
	for int64(len(data))-off >= 4 {
		n := int64(binary.BigEndian.Uint32(data[off:]))
		if n == 0 || n > maxFrameBytes {
			return off, recs, fmt.Errorf("frame at %d: implausible length %d", off, n)
		}
		if off+4+n > int64(len(data)) {
			return off, recs, fmt.Errorf("frame at %d: %d bytes long but only %d remain", off, n, int64(len(data))-off-4)
		}
		var r Record
		if err := json.Unmarshal(data[off+4:off+4+n], &r); err != nil {
			return off, recs, fmt.Errorf("frame at %d: %v", off, err)
		}
		if got, want := r.Sum, r.checksum(); got != want {
			return off, recs, fmt.Errorf("frame at %d (lsn %d): checksum %#x, expected %#x", off, r.LSN, got, want)
		}
		if r.LSN <= prev {
			return off, recs, fmt.Errorf("frame at %d: lsn %d not after %d", off, r.LSN, prev)
		}
		prev = r.LSN
		recs = append(recs, r)
		off += 4 + n
	}
	if off != int64(len(data)) {
		return off, recs, fmt.Errorf("trailing %d bytes at %d are shorter than a length prefix", int64(len(data))-off, off)
	}
	return off, recs, nil
}

// appendPayload appends r's frame payload to dst, byte-identical to
// json.Marshal(r) — the on-disk format — for every kind of frame, without
// reflection: fields in declaration order, omitempty ones left out when
// zero, strings through appendJSONString and a Checkpoint's snapshot with
// its keys sorted, as json sorts map keys.
func appendPayload(dst []byte, r *Record) []byte {
	dst = strconv.AppendInt(append(dst, `{"l":`...), r.LSN, 10)
	dst = strconv.AppendInt(append(dst, `,"k":`...), int64(r.Kind), 10)
	dst = appendStr(dst, `,"t":`, string(r.Txn))
	dst = appendNum(dst, `,"q":`, int64(r.Seq))
	dst = appendStr(dst, `,"e":`, string(r.Entity))
	dst = appendNum(dst, `,"b":`, int64(r.Before))
	dst = appendNum(dst, `,"a":`, int64(r.After))
	dst = appendNum(dst, `,"p":`, int64(r.Keep))
	dst = appendIDs(dst, `,"g":[`, r.Group)
	if len(r.Snapshot) > 0 {
		keys := make([]model.EntityID, 0, len(r.Snapshot))
		for x := range r.Snapshot {
			keys = append(keys, x)
		}
		slices.Sort(keys)
		dst = append(dst, `,"s":{`...)
		for _, x := range keys {
			dst = strconv.AppendInt(append(appendJSONString(dst, string(x)), ':'), int64(r.Snapshot[x]), 10)
			dst = append(dst, ',')
		}
		dst[len(dst)-1] = '}'
	}
	dst = appendIDs(dst, `,"d":[`, r.Done)
	return append(strconv.AppendUint(append(dst, `,"x":`...), r.Sum, 10), '}')
}

// appendNum, appendStr and appendIDs write one omitempty field.
func appendNum(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

func appendStr(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendJSONString(append(dst, key...), s)
}

func appendIDs(dst []byte, key string, ids []model.TxnID) []byte {
	if len(ids) == 0 {
		return dst
	}
	dst = append(dst, key...)
	for _, id := range ids {
		dst = append(appendJSONString(dst, string(id)), ',')
	}
	dst[len(dst)-1] = ']'
	return dst
}

// appendJSONString appends s quoted as json.Marshal writes a string: " and
// \ backslash-escaped; \b, \f, \n, \r and \t by name; every other
// control byte, and the HTML characters <, > and &, as \u00XX; each byte of
// invalid UTF-8 as \ufffd; U+2028 and U+2029 as \u2028 and \u2029; the
// rest verbatim.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// append buffers one record's frame. It makes no syscall: the frame
// reaches the file at the next flush.
func (b *fileBacking) append(r Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failed != nil {
		return b.failed
	}
	at := len(b.pending)
	buf := appendPayload(append(b.pending, 0, 0, 0, 0), &r)
	binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	b.pending = buf
	return nil
}

// latch records the first persistent failure; every later append and flush
// fails fast with it.
func (b *fileBacking) latch(err error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failed == nil {
		b.failed = fmt.Errorf("%w: segment %d offset %d, archive offset %d: %w", ErrDegraded, b.segIndex, b.off, b.archOff, err)
	}
	return b.failed
}

// try runs one disk operation, backing off and retrying while it fails
// transiently; disk-full, or diskRetries failures in a row, latch.
func (b *fileBacking) try(op func() error) error {
	backoff := diskBackoffMin
	for failures := 0; ; failures++ {
		err := op()
		if err == nil {
			return nil
		}
		if errors.Is(err, fault.ErrDiskFull) || failures >= diskRetries {
			return b.latch(err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > diskBackoffMax {
			backoff = diskBackoffMax
		}
	}
}

// write swaps the log buffer out and lands it in the file: per segment, the
// longest run of whole frames that fits goes down as one chunk at b.off,
// rotating on the frame boundary where the segment is full. Called with
// b.io held. Any failure latches — the frames of a failed chunk are gone
// from the buffer, so nothing may be written after them.
func (b *fileBacking) write() error {
	b.mu.Lock()
	if b.failed != nil {
		b.mu.Unlock()
		return b.failed
	}
	b.chunk, b.pending = b.pending, b.chunk[:0]
	b.mu.Unlock()
	for rest := b.chunk; len(rest) > 0; {
		n := 0
		for n < len(rest) {
			frame := 4 + int(binary.BigEndian.Uint32(rest[n:]))
			if b.off+int64(n) > 0 && b.off+int64(n+frame) > b.segBytes {
				break
			}
			n += frame
		}
		if n == 0 {
			if err := b.rotate(); err != nil {
				return b.latch(err)
			}
			continue
		}
		// A retry rewrites the WHOLE chunk at the same offset, overwriting
		// any partial bytes of the failed try.
		if err := b.try(func() error { return b.writeOnce(b.f, rest[:n], b.off) }); err != nil {
			return err
		}
		b.off += int64(n)
		rest = rest[n:]
	}
	return nil
}

func (b *fileBacking) writeOnce(f *os.File, p []byte, off int64) error {
	allowed, err := b.inj.DiskWrite(len(p))
	if _, werr := f.WriteAt(p[:allowed], off); werr != nil {
		return werr // includes a real short write
	}
	if err == nil && allowed < len(p) {
		err = io.ErrShortWrite
	}
	return err
}

// fsync syncs f with fault-aware retries. An fsync that keeps failing
// leaves the kernel's dirty state unknowable (the pages may have been
// dropped); latch degraded rather than pretend a later success covers this
// data.
func (b *fileBacking) fsync(f *os.File) error {
	return b.try(func() error {
		if err := b.inj.DiskSync(); err != nil {
			return err
		}
		return f.Sync()
	})
}

// sync writes the buffer and fsyncs.
func (b *fileBacking) sync() error {
	b.io.Lock()
	defer b.io.Unlock()
	if err := b.write(); err != nil {
		return err
	}
	return b.fsync(b.f)
}

// rotate seals the active segment (fsync, close) and opens the next one.
// Called with b.io held.
func (b *fileBacking) rotate() error {
	// A recycled segment may still end in stale frames (see compact), and
	// only the last segment may end in anything but a whole fresh frame.
	if err := b.f.Truncate(b.off); err != nil {
		return fmt.Errorf("wal: sealing segment %d: %w", b.segIndex, err)
	}
	if err := b.fsync(b.f); err != nil {
		return err
	}
	if err := b.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment %d: %w", b.segIndex, err)
	}
	return b.create(b.segIndex + 1)
}

// create opens a fresh segment file as the active one and fsyncs the
// directory so the name itself is durable.
func (b *fileBacking) create(idx int64) error {
	f, err := os.OpenFile(filepath.Join(b.dir, segName(idx)), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(b.dir); err != nil {
		f.Close()
		return err
	}
	b.f, b.off, b.segIndex = f, 0, idx
	b.segs = append(b.segs, idx)
	return nil
}

// compact appends ck to the archive, makes it durable, then recycles the
// log: the log buffer is not flushed here, so whatever the files hold was
// written — and fsynced — by a flush that preceded ck's capture and is
// behind it (invariant 6). Records still buffered land after it; the loader
// skips those at or below ck.LSN. Appends may run concurrently; flushes may
// not (the Pipeline's flusher is the only caller of both).
func (b *fileBacking) compact(ck *Record) error {
	if b == nil {
		return nil // in-memory medium: capture already moved it
	}
	b.io.Lock()
	defer b.io.Unlock()
	// 32 bytes per snapshot entry or done id covers the names the server
	// mints, so the frame is usually encoded into one allocation.
	payload := appendPayload(make([]byte, 4, 64+32*(len(ck.Snapshot)+len(ck.Done))), ck)
	binary.BigEndian.PutUint32(payload, uint32(len(payload)-4))
	if err := b.try(func() error { return b.writeOnce(b.arch, payload, b.archOff) }); err != nil {
		return err
	}
	if err := b.fsync(b.arch); err != nil {
		return err
	}
	if b.archOff == 0 {
		// The archive's first frame: its name must be durable as well.
		if err := syncDir(b.dir); err != nil {
			return b.latch(err)
		}
	}
	b.archOff += int64(len(payload))
	// Only now is the log redundant. The active segment is recycled in
	// place — later flushes overwrite it from the start, as Postgres reuses
	// WAL files: no name or size changes, so nothing for a directory sync or
	// a journal commit to do — and sealed ones are unlinked, best-effort. A
	// stale frame always carries a lower LSN than any newer one, so where
	// the overwriting stopped the loader sees the LSN order break and cuts
	// the rest off as a torn tail; stale frames it does read are skipped.
	b.off = 0
	last := len(b.segs) - 1
	for _, idx := range b.segs[:last] {
		os.Remove(filepath.Join(b.dir, segName(idx)))
	}
	b.segs = b.segs[last:]
	return nil
}

func (b *fileBacking) close() error {
	b.io.Lock()
	defer b.io.Unlock()
	if b.f == nil {
		return nil
	}
	err := b.write()
	if err == nil {
		err = b.f.Truncate(b.off) // no stale frames for the next mount to call torn
	}
	if err == nil {
		err = b.fsync(b.f)
	}
	if cerr := b.f.Close(); err == nil {
		err = cerr
	}
	b.f = nil
	b.arch.Close() // every frame was fsynced when written
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync %s: %w", dir, err)
	}
	return nil
}
