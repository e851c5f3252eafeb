package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cloudqc/internal/fault"
)

// frame renders one record line the way Append does: the payload's
// IEEE CRC32 in lowercase hex, a space, the payload, a newline.
func frame(payload string) string {
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload)
}

// frameRecords frames each record's JSON encoding.
func frameRecords(t testing.TB, recs ...Record) string {
	var s string
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		s += frame(string(payload))
	}
	return s
}

// FuzzWALOpen writes arbitrary bytes as a log file and checks that Open
// never panics, truncates the file to exactly the lines it recovered,
// recovers the same records when reopened, and appends after them.
func FuzzWALOpen(f *testing.F) {
	roundTrip := frameRecords(f,
		Record{Type: TypeStep, V: 1.5},
		Record{Type: TypeJob, V: 1.5, Tenant: 2, Priority: 1, Deadline: 99.5, Circuit: "ghz_n127"},
		Record{Type: TypeStep, V: 3},
		Record{Type: TypeJob, V: 3, QASM: "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n"},
		Record{Type: TypeFault, V: 5, Fault: &fault.Event{Kind: fault.KindQPUOutage, QPU: 1, From: 5, To: 10}},
	)
	steps := []byte(frameRecords(f, Record{Type: TypeStep, V: 1}, Record{Type: TypeStep, V: 2}, Record{Type: TypeStep, V: 3}))
	crcFlip := bytes.Clone(steps)
	crcFlip[bytes.IndexByte(steps, '\n')+11] ^= 0xff // a payload byte of record two
	f.Add([]byte(""))
	f.Add([]byte(roundTrip))
	f.Add([]byte(frameRecords(f, Record{Type: TypeStep, V: 7}) + `deadbeef {"t":"job","v":9`)) // torn tail
	f.Add(crcFlip)
	f.Add([]byte(frameRecords(f, Record{Type: TypeStep, V: 2}) + frame(`{"t":"fault","v":1}`))) // fault without its event
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		// The recovered records are the file's first len(recs) lines;
		// everything after them must be gone.
		keep := 0
		for range recs {
			keep += bytes.IndexByte(data[keep:], '\n') + 1
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:keep]) {
			t.Fatalf("after Open the file holds %d bytes, want the %d bytes of %d recovered records",
				len(got), keep, len(recs))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l, again, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("reopen recovered %+v, first open %+v", again, recs)
		}
		next := Record{Type: TypeJob, V: 11, Tenant: 1, Priority: 2, Circuit: "qft_n29"}
		if err := l.Append(next); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, appended, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if want := append(recs, next); !reflect.DeepEqual(appended, want) {
			t.Fatalf("after append recovered %+v, want %+v", appended, want)
		}
	})
}
