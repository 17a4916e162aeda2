package store

import (
	"bytes"
	"testing"
	"time"
)

// TestGoldenExportFormats pins the exact bytes of the two export formats:
// the CSV column order (seq, time, end_time, device, name, args, response,
// exception, procedure, run, mode, with args joined by "|") and the JSONL
// field order and omitempty behavior. Downstream IDS tooling parses these
// files positionally; any drift here is a breaking change and must show up
// as a diff in this test, not in a consumer.
func TestGoldenExportFormats(t *testing.T) {
	full := Record{
		Seq:       7,
		Time:      time.Date(2021, 12, 16, 10, 30, 0, 500_000_000, time.UTC),
		EndTime:   time.Date(2021, 12, 16, 10, 30, 1, 500_000_000, time.UTC),
		Device:    "Quantos",
		Name:      "start_dosing",
		Args:      []string{"sub.1", "amount=5.0"},
		Response:  "ok",
		Procedure: "P2",
		Run:       "2021-12-16_run1",
		Mode:      "DIRECT",
	}
	minimal := Record{
		// Seq 0: the writer assigns the next sequence (8, after the record
		// above) — also pinned here.
		Time:      time.Date(2021, 12, 16, 10, 30, 2, 0, time.UTC),
		EndTime:   time.Date(2021, 12, 16, 10, 30, 2, 0, time.UTC),
		Device:    "UR3e",
		Name:      "movej",
		Exception: "boom",
		Procedure: "P1",
	}

	var csvBuf bytes.Buffer
	cw := NewCSVWriter(&csvBuf)
	for _, r := range []Record{full, minimal} {
		if err := cw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	wantCSV := "seq,time,end_time,device,name,args,response,exception,procedure,run,mode\n" +
		"7,2021-12-16T10:30:00.5Z,2021-12-16T10:30:01.5Z,Quantos,start_dosing,sub.1|amount=5.0,ok,,P2,2021-12-16_run1,DIRECT\n" +
		"8,2021-12-16T10:30:02Z,2021-12-16T10:30:02Z,UR3e,movej,,,boom,P1,,\n"
	if got := csvBuf.String(); got != wantCSV {
		t.Errorf("csv export drifted:\ngot:\n%s\nwant:\n%s", got, wantCSV)
	}

	var jsonlBuf bytes.Buffer
	jw := NewJSONLWriter(&jsonlBuf)
	for _, r := range []Record{full, minimal} {
		if err := jw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	wantJSONL := `{"seq":7,"time":"2021-12-16T10:30:00.5Z","endTime":"2021-12-16T10:30:01.5Z","device":"Quantos","name":"start_dosing","args":["sub.1","amount=5.0"],"response":"ok","procedure":"P2","run":"2021-12-16_run1","mode":"DIRECT"}` + "\n" +
		`{"seq":8,"time":"2021-12-16T10:30:02Z","endTime":"2021-12-16T10:30:02Z","device":"UR3e","name":"movej","exception":"boom","procedure":"P1"}` + "\n"
	if got := jsonlBuf.String(); got != wantJSONL {
		t.Errorf("jsonl export drifted:\ngot:\n%s\nwant:\n%s", got, wantJSONL)
	}

	// Both formats round-trip to the same records they encoded.
	csvRecs, err := ReadCSV(bytes.NewReader(csvBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	jsonRecs, err := ReadJSONL(bytes.NewReader(jsonlBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvRecs) != 2 || len(jsonRecs) != 2 {
		t.Fatalf("round-trip lost rows: csv %d, jsonl %d", len(csvRecs), len(jsonRecs))
	}
	for i, want := range []Record{full, minimal} {
		if want.Seq == 0 {
			want.Seq = 8
		}
		for name, got := range map[string]Record{"csv": csvRecs[i], "jsonl": jsonRecs[i]} {
			if got.Seq != want.Seq || !got.Time.Equal(want.Time) || got.Device != want.Device ||
				got.Name != want.Name || got.Response != want.Response ||
				got.Exception != want.Exception || got.Procedure != want.Procedure ||
				got.Run != want.Run || got.Mode != want.Mode {
				t.Errorf("%s round-trip record %d mismatch:\n got  %+v\n want %+v", name, i, got, want)
			}
		}
	}
}
