// Package durable provides the crash-safe file primitives shared by the
// checkpoint, archive and journal writers. Three hazards motivate it:
//
//   - A summary or checkpoint replaced by plain write-then-rename survives a
//     process crash but not a power loss: the rename can hit the disk before
//     the data does, leaving a complete-looking file full of zeros.
//     WriteFileAtomic fsyncs the temp file before the rename and the
//     directory after it.
//
//   - An append-only journal that buffers in user space loses its tail on
//     any crash. AppendWriter fsyncs after every record, so a record that
//     was acknowledged is on disk.
//
//   - A JSONL file whose writer was killed mid-line ends in a half-written
//     fragment. A strict line scanner rejects the whole file; ScanJSONL
//     distinguishes the unterminated final fragment from a corrupt interior
//     line and skips only the former, reporting it so callers can warn.
package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with data durably: the bytes are written to
// a temp file in the same directory, fsynced, renamed over path, and the
// directory entry fsynced. After it returns, a crash at any point leaves
// either the complete old file or the complete new one — never a torn or
// empty intermediate.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	syncDir(dir)
	return nil
}

// Artifact is one file of a job's artifact set: the job's artifact base
// (a state-dir job stem, or a CLI's -out value) plus Suffix names it.
type Artifact struct {
	Suffix string
	Data   []byte
}

// WriteArtifacts writes each artifact to base+Suffix with WriteFileAtomic,
// in order.
func WriteArtifacts(base string, artifacts []Artifact) error {
	for _, a := range artifacts {
		if err := WriteFileAtomic(base+a.Suffix, a.Data); err != nil {
			return err
		}
	}
	return nil
}

// JSONL marshals records as one JSON object per line.
func JSONL[T any](records []T) ([]byte, error) {
	var out []byte
	for _, r := range records {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out = append(append(out, line...), '\n')
	}
	return out, nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives power loss. Best effort: some filesystems refuse directory
// fsync, and the data itself is already safe.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// AppendWriter is an append-only record log: every AppendLine is written
// and fsynced before returning, so an acknowledged record survives a crash.
// Not safe for concurrent use; callers serialize.
type AppendWriter struct {
	f *os.File
}

// OpenAppend opens (creating if needed) path for durable appends.
func OpenAppend(path string) (*AppendWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	// Make the file's existence durable too: a journal whose first record
	// is on disk but whose directory entry is not would vanish on power
	// loss.
	syncDir(filepath.Dir(path))
	return &AppendWriter{f: f}, nil
}

// AppendLine appends data plus a newline and fsyncs. The newline is the
// record terminator ScanJSONL keys off: a record missing it is, by
// construction, a crash tail.
func (w *AppendWriter) AppendLine(data []byte) error {
	if bytes.IndexByte(data, '\n') >= 0 {
		return fmt.Errorf("durable: record contains a newline")
	}
	buf := make([]byte, 0, len(data)+1)
	buf = append(buf, data...)
	buf = append(buf, '\n')
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (w *AppendWriter) Close() error {
	return w.f.Close()
}

// ScanJSONL hands every non-empty line of r (with its 1-based line number,
// trailing \r\n or \n stripped) to decode. A decode error on a
// newline-terminated line is fatal — the line was written completely, so
// it is corrupt, not truncated. A decode error on an unterminated final
// fragment is the signature of a writer killed mid-line: the fragment is
// skipped and truncated reports it, so callers can warn and continue with
// every record that was fully written. An unterminated final line that
// decodes cleanly is kept (files written without a trailing newline stay
// loadable).
func ScanJSONL(r io.Reader, decode func(line int, data []byte) error) (truncated bool, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	line := 0
	for {
		data, rerr := br.ReadBytes('\n')
		complete := rerr == nil
		if rerr != nil && rerr != io.EOF {
			return false, fmt.Errorf("durable: read line %d: %w", line+1, rerr)
		}
		if trimmed := trimEOL(data); len(trimmed) > 0 {
			line++
			if derr := decode(line, trimmed); derr != nil {
				if !complete {
					return true, nil
				}
				return false, derr
			}
		}
		if !complete {
			return false, nil
		}
	}
}

// trimEOL strips one trailing \n and an optional preceding \r.
func trimEOL(data []byte) []byte {
	data = bytes.TrimSuffix(data, []byte("\n"))
	return bytes.TrimSuffix(data, []byte("\r"))
}
