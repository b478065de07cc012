package history

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mla/internal/model"
)

// SpoolFormat identifies the append-only history spool: a JSONL stream a
// resident server writes as events happen, built so that the history of a
// process killed with SIGKILL at any instant is still checkable.
//
// The native History format (one indented JSON document) cannot be written
// incrementally — a crash mid-marshal loses everything. The spool writes
// one self-contained line per fact, each with a single write(2) call, so
// the kernel's page cache holds every acknowledged line the moment the
// call returns: process death (the soak's kill -9) loses at most a torn
// final line, which both the writer (on reopen) and the reader truncate
// away. Machine power loss is out of scope for the spool — the WAL, not
// the history, is the durability authority; the spool is the black-box
// witness used to CHECK the WAL's story.
//
// A file-backed Recorder (OpenSpoolFile) writes it. Line shapes,
// distinguished by their keys:
//
//	{"spool":"mla-history-spool/v1","k":4}        header (one per boot)
//	{"decl":"e3-s000017","levels":["L2-C0",...]}  level-matrix row
//	{"kind":"step","txn":...}                     an Event, verbatim
//
// A restarted server appends to the same file: repeated headers (with a
// matching k) mark boot boundaries, and ReadSpool merges the whole stream
// into one concatenated History.
const SpoolFormat = "mla-history-spool/v1"

// spoolLine is the umbrella shape every line parses into; writers use the
// dedicated shapes below so each line carries only its own keys.
type spoolLine struct {
	// Header fields.
	Spool string `json:"spool,omitempty"`
	K     int    `json:"k,omitempty"`
	// Declaration fields.
	Decl   model.TxnID `json:"decl,omitempty"`
	Levels []string    `json:"levels"`
	// Event fields (inlined so an Event line unmarshals unchanged).
	Event
}

type spoolHeader struct {
	Spool string `json:"spool"`
	K     int    `json:"k"`
}

type spoolDecl struct {
	Decl   model.TxnID `json:"decl"`
	Levels []string    `json:"levels"`
}

// OpenSpoolFile returns a file-backed Recorder: it opens (creating if
// needed) the spool at path in append mode, self-heals a torn final line
// left by a previous kill, and writes this boot's header. k is the level
// count of every history in the file; reopening with a different k fails.
// Only the first line and the tail are read, so reopening costs the same
// whatever the spool has accumulated over earlier boots.
func OpenSpoolFile(path string, k int) (*Recorder, error) {
	if k < 2 {
		return nil, fmt.Errorf("history: spool k=%d out of range", k)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	r := &Recorder{f: f}
	if r.err = healSpool(f, path, k); r.err == nil {
		r.writeLocked(spoolHeader{Spool: SpoolFormat, K: k})
	}
	if r.err != nil {
		f.Close()
		return nil, r.err
	}
	return r, nil
}

// healSpool checks that an existing stream's first header agrees on k and
// truncates whatever follows its last newline (the line a kill tore).
func healSpool(f *os.File, path string, k int) error {
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	buf := make([]byte, 4096)
	head := buf[:min(st.Size(), int64(len(buf)))]
	if _, err := f.ReadAt(head, 0); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if first := bytes.IndexByte(head, '\n'); first > 0 {
		var hdr spoolLine
		if err := json.Unmarshal(head[:first], &hdr); err == nil && hdr.Spool == SpoolFormat && hdr.K != k {
			return fmt.Errorf("history: spool %s has k=%d, reopened with k=%d", path, hdr.K, k)
		}
	}
	cut := int64(0) // just past the last newline, found block by block from the end
	for end := st.Size(); end > 0 && cut == 0; end -= int64(len(buf)) {
		start := max(end-int64(len(buf)), 0)
		chunk := buf[:end-start]
		if _, err := f.ReadAt(chunk, start); err != nil {
			return fmt.Errorf("history: %w", err)
		}
		if i := bytes.LastIndexByte(chunk, '\n'); i >= 0 {
			cut = start + int64(i) + 1
		}
	}
	if err := f.Truncate(cut); err != nil {
		return fmt.Errorf("history: healing torn spool tail: %w", err)
	}
	return nil
}

// SniffSpool reports whether data starts with a spool header line — how
// mlacheck distinguishes a spool from a native single-document history.
func SniffSpool(data []byte) bool {
	line := data
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	var hdr spoolLine
	return json.Unmarshal(bytes.TrimSpace(line), &hdr) == nil && hdr.Spool == SpoolFormat
}

// ReadSpool merges a spool stream — any number of boots appended to one
// file — into a single validated History. A torn final line (the process
// died mid-write) is tolerated and dropped; every complete line before it
// must parse. Repeated headers must agree on k.
func ReadSpool(r io.Reader) (*History, error) {
	h := &History{Format: Format, Levels: make(map[model.TxnID][]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	var torn string // last line, if it failed to parse (candidate torn tail)
	for sc.Scan() {
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if torn != "" {
			// An unparseable line followed by more data is corruption, not a
			// torn tail.
			return nil, fmt.Errorf("history: spool line %d: %s", lineNo-1, torn)
		}
		var l spoolLine
		if err := json.Unmarshal(raw, &l); err != nil {
			torn = err.Error()
			continue
		}
		switch {
		case l.Spool != "":
			if l.Spool != SpoolFormat {
				return nil, fmt.Errorf("history: spool line %d: format %q, want %q", lineNo, l.Spool, SpoolFormat)
			}
			if h.K != 0 && l.K != h.K {
				return nil, fmt.Errorf("history: spool line %d: k=%d after k=%d", lineNo, l.K, h.K)
			}
			h.K = l.K
		case l.Decl != "":
			if l.Levels == nil {
				l.Levels = []string{}
			}
			h.Levels[l.Decl] = l.Levels
		case l.Kind != "":
			if h.K == 0 {
				return nil, fmt.Errorf("history: spool line %d: event before any header", lineNo)
			}
			h.Events = append(h.Events, l.Event)
		default:
			return nil, fmt.Errorf("history: spool line %d: unrecognized shape %s", lineNo, raw)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("history: spool: %w", err)
	}
	if h.K == 0 {
		return nil, fmt.Errorf("history: spool is empty")
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// ReadSpoolFile reads and merges the spool at path; see ReadSpool.
func ReadSpoolFile(path string) (*History, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	defer f.Close()
	return ReadSpool(f)
}
