package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nesc/internal/sim"
)

func TestNilSpanRecorderNoOps(t *testing.T) {
	var r *SpanRecorder
	s := r.Start(1, 0, "read", 7, 100, 4, 0)
	if s != nil {
		t.Fatal("nil recorder returned a live span")
	}
	s.Phase("fetch", -1, 0, 10, "") // nil span: must not panic
	r.Finish(s, 20, 0)
	if r.Len() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder retained something")
	}
	var b bytes.Buffer
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("nil-recorder trace is not valid JSON: %v", err)
	}
}

func TestSpanRecorderRing(t *testing.T) {
	r := NewSpanRecorder(2)
	for i := 0; i < 3; i++ {
		s := r.Start(1, 0, "write", uint32(i), uint64(i), 1, sim.Time(i))
		r.Finish(s, sim.Time(i)+10, 0)
	}
	if r.Total != 3 || r.Len() != 2 {
		t.Fatalf("Total=%d Len=%d, want 3/2", r.Total, r.Len())
	}
	spans := r.Spans()
	if spans[0].ID != 1 || spans[1].ID != 2 {
		t.Fatalf("ring kept wrong spans: %d, %d", spans[0].ID, spans[1].ID)
	}
}

func TestChromeTraceShape(t *testing.T) {
	r := NewSpanRecorder(8)
	s := r.Start(2, 1, "read", 42, 1000, 2, 100)
	s.Phase("fetch", -1, 100, 200, "")
	s.Phase("translate", 0, 250, 400, "hit")
	s.Phase("translate", 1, 260, 900, "miss")
	s.Phase("transfer", 0, 450, 700, "")
	s.Retries = 1
	r.Finish(s, 1000, 0)

	var b bytes.Buffer
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, b.String())
	}
	// 1 metadata + 1 request slice + 4 phase slices.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6:\n%s", len(doc.TraceEvents), b.String())
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Args["name"] != "vf2" {
		t.Fatalf("first event is not the vf2 process metadata: %+v", doc.TraceEvents[0])
	}
	var sawHit, sawMiss bool
	for _, e := range doc.TraceEvents[1:] {
		if e.Ph != "X" {
			t.Fatalf("span event with ph=%q, want X", e.Ph)
		}
		if e.Pid != 2 || e.Tid != 1 {
			t.Fatalf("event on track pid=%d tid=%d, want 2/1", e.Pid, e.Tid)
		}
		if e.Dur == nil || *e.Dur < 0 || e.Ts < 0 {
			t.Fatalf("bad ts/dur: %+v", e)
		}
		if strings.HasPrefix(e.Name, "translate(hit)") {
			sawHit = true
			if *e.Dur != 0.15 { // 150 ns = 0.15 us
				t.Fatalf("hit dur = %v us, want 0.15", *e.Dur)
			}
		}
		if strings.HasPrefix(e.Name, "translate(miss)") {
			sawMiss = true
		}
	}
	if !sawHit || !sawMiss {
		t.Fatalf("translation outcome tags missing (hit=%v miss=%v)", sawHit, sawMiss)
	}
}

func TestKindStringsExhaustive(t *testing.T) {
	for k := 0; k < NumKinds; k++ {
		s := Kind(k).String()
		if s == "" || strings.HasPrefix(s, "Kind(") {
			t.Fatalf("Kind(%d) has no name: %q", k, s)
		}
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Fatalf("unknown kind fallback = %q", got)
	}
	if KindVerify.String() != "verify" {
		t.Fatalf("KindVerify = %q", KindVerify.String())
	}
}
