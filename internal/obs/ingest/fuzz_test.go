package ingest

import (
	"bytes"
	"os"
	"testing"

	"bps/internal/core"
	"bps/internal/trace"
)

// FuzzReadAuto drives the log boundary — ReadAuto, Validate, then the
// Records and Accesses conversions — with arbitrary bytes as CSV
// (csv true) or JSONL. Nothing may panic, and a log that validates
// must convert to records with 0 ≤ Start ≤ End and positive blocks,
// whose overlapped time T satisfies 0 ≤ T ≤ Span, so that B/T is
// finite for every log the system accepts.
func FuzzReadAuto(f *testing.F) {
	csv, err := os.ReadFile("../../../testdata/darshan_sample.csv")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(true, csv)
	var jsonl bytes.Buffer
	if err := WriteJSONL(&jsonl, sampleLog()); err != nil {
		f.Fatal(err)
	}
	f.Add(false, jsonl.Bytes())
	f.Add(false, []byte(`{"rank":0,"file":"f","op":"read","length":1,"end":1e10}`))
	f.Add(true, []byte("rank,file,op,offset,length,start_s,end_s\n0,f,read,0,9223372036854775807,0,1\n"))
	f.Fuzz(func(t *testing.T, csv bool, data []byte) {
		name := "log.jsonl"
		if csv {
			name = "log.csv"
		}
		l, err := ReadAuto(name, bytes.NewReader(data))
		if err != nil || l.Validate() != nil {
			return
		}
		recs := l.Records()
		if len(recs) != l.Len() {
			t.Fatalf("%d records from %d segments", len(recs), l.Len())
		}
		for _, r := range recs {
			if r.Start < 0 || r.End < r.Start || r.Blocks <= 0 {
				t.Fatalf("valid log gave record %+v", r)
			}
		}
		T, span := core.OverlapTime(recs), core.Span(recs)
		if T < 0 || T > span {
			t.Fatalf("T = %v outside [0, span %v]", T, span)
		}
		if m := core.Compute(trace.FromRecords(recs), 0, span); T > 0 && m.BPS() <= 0 {
			t.Fatalf("BPS %v with T = %v", m.BPS(), T)
		}
		accs, extents := l.Accesses()
		if len(accs) != len(recs) {
			t.Fatalf("%d accesses from %d segments", len(accs), len(recs))
		}
		for _, a := range accs {
			if a.Slot < 0 || a.Slot >= len(extents) || a.Off+a.Size > extents[a.Slot] || a.Start < 0 || a.End < a.Start {
				t.Fatalf("valid log gave access %+v (extents %v)", a, extents)
			}
		}
	})
}
