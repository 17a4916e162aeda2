package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// JSONLWriter streams records to w as one JSON document per line — the
// document-store-friendly export format. It implements Sink.
type JSONLWriter struct {
	w       *bufio.Writer
	nextSeq uint64
}

var _ Sink = (*JSONLWriter)(nil)

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

// Append writes one record as a JSON line.
func (j *JSONLWriter) Append(r Record) error {
	if r.Seq == 0 {
		r.Seq = j.nextSeq
	}
	j.nextSeq = r.Seq + 1
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("store: marshal record: %w", err)
	}
	if _, err := j.w.Write(b); err != nil {
		return fmt.Errorf("store: write record: %w", err)
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("store: write newline: %w", err)
	}
	return nil
}

// Flush flushes buffered lines to the underlying writer.
func (j *JSONLWriter) Flush() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

// ReadJSONL parses a JSONL export produced by JSONLWriter.
func ReadJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("store: jsonl line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: scan jsonl: %w", err)
	}
	return out, nil
}
