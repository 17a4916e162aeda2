package store

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// csvHeader is the column layout of the CSV export, mirroring the fields
// RATracer logs per access.
var csvHeader = []string{
	"seq", "time", "end_time", "device", "name", "args",
	"response", "exception", "procedure", "run", "mode",
}

// CSVWriter streams records to w in CSV form, writing the header on the
// first record. It implements Sink.
type CSVWriter struct {
	w       *csv.Writer
	wrote   bool
	nextSeq uint64
}

var _ Sink = (*CSVWriter)(nil)

// NewCSVWriter wraps w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: csv.NewWriter(w)}
}

// Append writes one record row (plus the header before the first row). The
// stored sequence number is preserved if nonzero, otherwise assigned.
func (c *CSVWriter) Append(r Record) error {
	if !c.wrote {
		if err := c.w.Write(csvHeader); err != nil {
			return fmt.Errorf("store: write csv header: %w", err)
		}
		c.wrote = true
	}
	if r.Seq == 0 {
		r.Seq = c.nextSeq
	}
	c.nextSeq = r.Seq + 1
	row := []string{
		strconv.FormatUint(r.Seq, 10),
		r.Time.Format(time.RFC3339Nano),
		r.EndTime.Format(time.RFC3339Nano),
		r.Device,
		r.Name,
		joinArgs(r.Args),
		r.Response,
		r.Exception,
		r.Procedure,
		r.Run,
		r.Mode,
	}
	if err := c.w.Write(row); err != nil {
		return fmt.Errorf("store: write csv row: %w", err)
	}
	return nil
}

// Flush flushes buffered rows to the underlying writer.
func (c *CSVWriter) Flush() error {
	c.w.Flush()
	return c.w.Error()
}

// ReadCSV parses a CSV export produced by CSVWriter.
func ReadCSV(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("store: read csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	records := make([]Record, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != len(csvHeader) {
			return nil, fmt.Errorf("store: csv row %d has %d columns, want %d", i+2, len(row), len(csvHeader))
		}
		seq, err := strconv.ParseUint(row[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("store: csv row %d seq: %w", i+2, err)
		}
		t0, err := time.Parse(time.RFC3339Nano, row[1])
		if err != nil {
			return nil, fmt.Errorf("store: csv row %d time: %w", i+2, err)
		}
		t1, err := time.Parse(time.RFC3339Nano, row[2])
		if err != nil {
			return nil, fmt.Errorf("store: csv row %d end_time: %w", i+2, err)
		}
		records = append(records, Record{
			Seq: seq, Time: t0, EndTime: t1,
			Device: row[3], Name: row[4], Args: splitArgs(row[5]),
			Response: row[6], Exception: row[7],
			Procedure: row[8], Run: row[9], Mode: row[10],
		})
	}
	return records, nil
}
