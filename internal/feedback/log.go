package feedback

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"opprox/internal/apps"
)

// Entry is one line of the telemetry log: a single phase observation
// joined with the residuals and exceedance flags computed against the
// dispatch's recorded predictions. Seq is a per-log monotonic sequence
// number — deliberately not a wall-clock timestamp, so the log bytes for
// a fixed feedback sequence are identical across runs (replaying a log
// reproduces the exact drift trajectory).
type Entry struct {
	Seq         uint64  `json:"seq"`
	DispatchID  string  `json:"dispatch_id"`
	Model       string  `json:"model"`
	Version     string  `json:"version"`
	Phase       int     `json:"phase"`
	Speedup     float64 `json:"realized_speedup"`
	Degradation float64 `json:"realized_degradation"`
	SpeedupRes  float64 `json:"speedup_residual"`
	DegRes      float64 `json:"deg_residual"`
	SpeedupEx   bool    `json:"speedup_exceeded,omitempty"`
	DegEx       bool    `json:"deg_exceeded,omitempty"`
	// App, Budget, Params and Levels carry the dispatch-side context the
	// retraining pipeline needs to rebuild a training row from the log
	// alone: the request that was optimized and the schedule this phase
	// ran under. All omitempty, so logs written by older builds still
	// decode — the extractor counts such entries as skipped instead of
	// failing the replay. encoding/json sorts Params keys, so the line
	// bytes stay deterministic.
	App    string      `json:"app,omitempty"`
	Budget float64     `json:"budget,omitempty"`
	Params apps.Params `json:"params,omitempty"`
	Levels []int       `json:"levels,omitempty"`
}

// LogOptions tunes a telemetry log. The zero value means no fsync and
// no rotation.
type LogOptions struct {
	// Sync fsyncs every append — a crash never loses an acknowledged
	// feedback report.
	Sync bool
	// MaxBytes bounds the live file: when an append pushes it to this
	// size or beyond, the file is atomically renamed into the next
	// numbered segment ("<path>.000001", oldest first) and a fresh live
	// file is started. Rotation happens between appends, so every
	// segment ends on a line boundary and the concatenation of the
	// segments plus the live file is byte-identical to the stream an
	// unrotated log would have written. 0 disables rotation.
	MaxBytes int64
}

// Log is an append-only JSONL telemetry store. Every Append writes one
// line and, when opened with sync, fsyncs before returning — a crash
// never loses an acknowledged feedback report. The zero-value *Log (nil)
// is a valid no-op sink, so the server runs identically with telemetry
// persistence off.
type Log struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	sync     bool
	seq      uint64
	maxBytes int64
	size     int64
	segs     int // rotated segments already on disk
}

// OpenLogOptions opens (creating if needed) an append-only telemetry
// log. With opts.Sync every append is fsync'd. The sequence counter
// resumes past every existing entry, rotated segments included, so a
// reopened log stays strictly ordered.
func OpenLogOptions(path string, opts LogOptions) (*Log, error) {
	segs, err := logSegments(path)
	if err != nil {
		return nil, fmt.Errorf("feedback: listing log segments: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("feedback: opening log: %w", err)
	}
	l := &Log{path: path, f: f, sync: opts.Sync, maxBytes: opts.MaxBytes, segs: len(segs)}
	if st, err := f.Stat(); err == nil {
		l.size = st.Size()
	}
	// Resume the sequence counter from the existing tail: the live file's
	// last entry, or — when the live file is empty (e.g. right after a
	// rotation) — the newest segment's.
	for _, p := range append(segs, path) {
		if last, ok := lastSeq(p); ok && last > l.seq {
			l.seq = last
		}
	}
	return l, nil
}

// Path returns the live file's path (the retrainer reads the log the
// server writes). Empty for a nil log.
func (l *Log) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Append assigns the next sequence number and writes the entry as one
// JSONL line, fsync'd when the log was opened with sync. When the write
// pushes the live file past MaxBytes the file is rotated into the next
// numbered segment.
func (l *Log) Append(e Entry) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("feedback: encoding log entry: %w", err)
	}
	b = append(b, '\n')
	n, err := l.f.Write(b)
	l.size += int64(n)
	if err != nil {
		return fmt.Errorf("feedback: appending log entry: %w", err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("feedback: fsync log: %w", err)
		}
	}
	if l.maxBytes > 0 && l.size >= l.maxBytes {
		if err := l.rotateLocked(); err != nil {
			return fmt.Errorf("feedback: rotating log: %w", err)
		}
	}
	return nil
}

// rotateLocked renames the live file into the next numbered segment and
// starts a fresh one. The rename is atomic and happens with the append
// lock held, so no entry is ever split across a rotation boundary.
func (l *Log) rotateLocked() error {
	if !l.sync {
		// A segment is immutable once renamed; make its bytes durable
		// before it stops being "the live file we still have open".
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.segs++
	if err := os.Rename(l.path, segmentName(l.path, l.segs)); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.size = 0
	return nil
}

// Close closes the underlying file.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// segmentName is the store name of rotated segment n (1-based; segment 1
// is the oldest).
func segmentName(path string, n int) string {
	return fmt.Sprintf("%s.%06d", path, n)
}

// logSegments lists the rotated segments of a log in replay order
// (ascending segment number). The live file is not included.
func logSegments(path string) ([]string, error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type seg struct {
		n int
		p string
	}
	var segs []seg
	prefix := base + "."
	for _, ent := range ents {
		name := ent.Name()
		if len(name) != len(prefix)+6 || name[:len(prefix)] != prefix {
			continue
		}
		n, err := strconv.Atoi(name[len(prefix):])
		if err != nil || n < 1 {
			continue
		}
		segs = append(segs, seg{n: n, p: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].n < segs[b].n })
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = s.p
	}
	return out, nil
}

// ScanLog streams every entry of a possibly-rotated telemetry log in
// sequence order, calling fn per entry — bounded memory regardless of
// log size (one line at a time). It is safe against a concurrent
// writer: the live file is opened before the segment listing, so a
// rotation that lands in between is read through the already-open file
// handle (the rename does not invalidate it), and any entry visible
// through both is delivered once (sequence numbers are strictly
// increasing across segments). A torn final line of the live file — an
// append caught mid-write — ends the scan cleanly; torn or corrupt
// lines anywhere else are errors.
func ScanLog(path string, fn func(Entry) error) error {
	live, lerr := os.Open(path)
	if lerr != nil && !os.IsNotExist(lerr) {
		return fmt.Errorf("feedback: opening log: %w", lerr)
	}
	if live != nil {
		defer live.Close()
	}
	segs, err := logSegments(path)
	if err != nil {
		return fmt.Errorf("feedback: listing log segments: %w", err)
	}
	var last uint64
	deliver := func(e Entry) error {
		if e.Seq <= last && last != 0 {
			return nil // already seen through an earlier piece
		}
		last = e.Seq
		return fn(e)
	}
	for _, p := range segs {
		f, err := os.Open(p)
		if err != nil {
			if os.IsNotExist(err) {
				continue // raced a retention cleanup; later pieces re-anchor on seq
			}
			return fmt.Errorf("feedback: opening log segment: %w", err)
		}
		err = scanEntries(f, deliver, false)
		f.Close()
		if err != nil {
			return fmt.Errorf("feedback: segment %s: %w", p, err)
		}
	}
	if live == nil {
		return nil
	}
	if err := scanEntries(live, deliver, true); err != nil {
		return fmt.Errorf("feedback: log %s: %w", path, err)
	}
	return nil
}

// scanEntries decodes a JSONL stream line by line. With tolerateTail a
// decode failure on the final line is treated as EOF (an in-flight
// append caught mid-write), not an error.
func scanEntries(r io.Reader, fn func(Entry) error, tolerateTail bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		b := sc.Bytes()
		line++
		if len(b) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(b, &e); err != nil {
			if tolerateTail && !sc.Scan() {
				return nil
			}
			return fmt.Errorf("log line %d: %w", line, err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return sc.Err()
}

// lastSeq returns the final entry's sequence number in one log piece.
func lastSeq(path string) (uint64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var last uint64
	found := false
	if err := scanEntries(f, func(e Entry) error {
		last, found = e.Seq, true
		return nil
	}, true); err != nil {
		return 0, false
	}
	return last, found
}

// ReadLogFile reads every entry of a possibly-rotated log (tests and
// small tools; production readers stream with ScanLog).
func ReadLogFile(path string) ([]Entry, error) {
	var out []Entry
	err := ScanLog(path, func(e Entry) error {
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
