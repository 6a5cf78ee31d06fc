package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestLedgerAppendAndWrap(t *testing.T) {
	l := NewLedger(4)
	l.SetPass(2)
	for i := 0; i < 7; i++ {
		l.Append(LedgerEvent{Kind: LKScanned, VM: 0, GFN: uint64(i), PFN: uint64(100 + i)})
	}
	if l.Len() != 4 {
		t.Fatalf("len=%d want 4", l.Len())
	}
	if l.Dropped() != 3 {
		t.Fatalf("dropped=%d want 3", l.Dropped())
	}
	evs := l.Events()
	for i, e := range evs {
		if want := uint64(4 + i); e.Seq != want {
			t.Fatalf("event %d seq=%d want %d (order broken)", i, e.Seq, want)
		}
		if e.Pass != 2 {
			t.Fatalf("pass=%d want 2", e.Pass)
		}
	}
}

func TestLedgerFrameHistory(t *testing.T) {
	l := NewLedger(0)
	l.Append(LedgerEvent{Kind: LKScanned, VM: 0, GFN: 1, PFN: 10})
	l.Append(LedgerEvent{Kind: LKMerged, VM: 0, GFN: 1, PFN: 10, Arg: 20}) // 10 merged onto 20
	l.Append(LedgerEvent{Kind: LKScanned, VM: 1, GFN: 9, PFN: 30})         // unrelated
	l.Append(LedgerEvent{Kind: LKCoWBroken, VM: 0, GFN: 1, PFN: 20, Arg: 40})

	// Frame 20's history includes events where it is the subject AND the
	// merge that targeted it.
	hist := l.FrameHistory(20)
	if len(hist) != 2 {
		t.Fatalf("history len=%d want 2: %+v", len(hist), hist)
	}
	if hist[0].Kind != LKMerged || hist[1].Kind != LKCoWBroken {
		t.Fatalf("history kinds wrong: %+v", hist)
	}
	// Frame 40 appears only as a CoW destination.
	if got := l.FrameHistory(40); len(got) != 1 || got[0].Kind != LKCoWBroken {
		t.Fatalf("cow destination history: %+v", got)
	}
	if got := l.FrameHistory(999); len(got) != 0 {
		t.Fatalf("unknown frame has history: %+v", got)
	}
}

func TestLedgerAttribution(t *testing.T) {
	l := NewLedger(0)
	l.Append(LedgerEvent{Kind: LKScanned})
	l.Append(LedgerEvent{Kind: LKScanned})
	l.Append(LedgerEvent{Kind: LKChurned, Cause: CauseContentChurn})
	l.Append(LedgerEvent{Kind: LKMergeFailed, Cause: CauseChecksumInstability})
	at := l.Attribution()
	if at.Events != 4 || at.Dropped != 0 {
		t.Fatalf("events=%d dropped=%d", at.Events, at.Dropped)
	}
	if at.Kinds["scanned"] != 2 || at.Kinds["churned"] != 1 {
		t.Fatalf("kinds=%v", at.Kinds)
	}
	if at.Causes["content_churn"] != 1 || at.Causes["checksum_instability"] != 1 {
		t.Fatalf("causes=%v", at.Causes)
	}
	if _, ok := at.Causes["none"]; ok {
		t.Fatal("productive events must not appear on the cause axis")
	}
}

func TestLedgerStateRoundTrip(t *testing.T) {
	l := NewLedger(8)
	l.SetPass(1)
	for i := 0; i < 5; i++ {
		l.Append(LedgerEvent{Kind: LKScanned, PFN: uint64(i)})
	}
	st := l.State()
	other := NewLedger(8)
	other.SetState(st)
	if !reflect.DeepEqual(l.Events(), other.Events()) {
		t.Fatal("events diverged after round trip")
	}
	// Sequence numbering and pass stamping must continue identically.
	l.Append(LedgerEvent{Kind: LKStable, PFN: 9})
	other.Append(LedgerEvent{Kind: LKStable, PFN: 9})
	if !reflect.DeepEqual(l.Events(), other.Events()) {
		t.Fatal("post-restore append diverged")
	}
}

func TestLedgerNilIsNoop(t *testing.T) {
	var l *Ledger
	if l.Enabled() {
		t.Fatal("nil ledger enabled")
	}
	l.SetPass(3)
	l.Append(LedgerEvent{Kind: LKScanned}) // must not panic
	l.AppendAll([]LedgerEvent{{Kind: LKScanned}})
	l.SetState(LedgerState{})
	if l.Len() != 0 || l.Dropped() != 0 || l.Events() != nil || l.FrameHistory(0) != nil {
		t.Fatal("nil ledger leaked state")
	}
	if at := l.Attribution(); at.Events != 0 {
		t.Fatal("nil ledger attributed events")
	}
}

// TestLedgerJSONRoundTrip writes the artifact and parses it back through
// the exported reader: kinds and causes must come out as names, and
// re-encoding the parsed file must reproduce the written bytes.
func TestLedgerJSONRoundTrip(t *testing.T) {
	l := NewLedger(0)
	l.SetPass(3)
	l.Append(LedgerEvent{Kind: LKMerged, VM: 1, GFN: 7, PFN: 10, Arg: 20})
	l.Append(LedgerEvent{Kind: LKChurned, VM: 0, GFN: 2, PFN: 11, Cause: CauseContentChurn})

	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	written := append([]byte(nil), buf.Bytes()...)
	f, err := ReadLedgerJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != LedgerSchema {
		t.Fatalf("schema=%q", f.Schema)
	}
	if len(f.Events) != 2 {
		t.Fatalf("events=%d want 2", len(f.Events))
	}
	e := f.Events[0]
	if e.Kind != "merged" || e.Cause != "" || e.VM != 1 || e.GFN != 7 || e.PFN != 10 || e.Arg != 20 || e.Pass != 3 {
		t.Fatalf("merged event wrong: %+v", e)
	}
	if f.Events[1].Kind != "churned" || f.Events[1].Cause != "content_churn" {
		t.Fatalf("churned event wrong: %+v", f.Events[1])
	}
	if f.Attribution.Kinds["merged"] != 1 {
		t.Fatalf("attribution=%v", f.Attribution)
	}
	var again bytes.Buffer
	if err := json.NewEncoder(&again).Encode(f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), written) {
		t.Fatalf("re-encoded artifact differs:\n got %s\nwant %s", again.Bytes(), written)
	}
	// An event marshaled on its own matches its artifact entry.
	ev, err := json.Marshal(l.Events()[1])
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(f.Events[1]); !bytes.Equal(ev, want) {
		t.Fatalf("LedgerEvent JSON %s, artifact entry %s", ev, want)
	}
	if _, err := ReadLedgerJSON(bytes.NewBufferString(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
}
