package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanKind names a call the harness makes into a layer. Spans inside
// internal/ are out of scope: these are recorded from outside, around the
// harness's own calls.
type spanKind uint8

const (
	spanSetup  spanKind = iota // core constructor: create + every handshake
	spanCreate                 // piecewise create without handshakes (setup split)
	spanWarmup
	spanSlice
	spanSubmit // SendUDP / WriteSectors / ReadSectors loop: guest stack + front driver
	spanDrain  // Eng.Run
	spanTx     // net_stream guest->client half
	spanRx     // net_stream client->guest half
	spanAge    // Bridge.AgeFDB
	spanVerify
	spanMicro // one micro-driver batch
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"setup", "setup.create", "warmup", "slice", "submit", "drain", "tx", "rx", "age", "verify", "micro",
}

// span is one timed call. Times are host nanoseconds since the tracer was
// made; parent is the index of the enclosing span, -1 at the root.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
	label      string // micro-driver name, slice tag
}

// tracer records spans in memory; nothing is written until the run ends.
// A nil or paused tracer records nothing, so untraced slices run the same
// code as traced ones.
type tracer struct {
	paused   bool
	capacity int
	runID    string
	t0       time.Time
	spans    []span
	open     []int32
	marks    []boundary
}

// boundary is the kind-A/B counter snapshot taken at the end of a traced
// slice.
type boundary struct {
	Slice    int               `json:"slice"`
	WallNS   int64             `json:"wall_ns"`
	Counters map[string]uint64 `json:"counter_deltas"`
}

func newTracer(runID string, capacity int) *tracer {
	return &tracer{runID: runID, capacity: capacity, t0: time.Now(), spans: make([]span, 0, capacity), open: make([]int32, 0, 16)}
}

// grew reports whether recording outran the preallocated buffer, which puts
// an allocation and a copy inside whatever was being timed.
func (tr *tracer) grew() bool { return cap(tr.spans) != tr.capacity }

func (tr *tracer) begin(k spanKind) int32 { return tr.beginL(k, "") }

func (tr *tracer) beginL(k spanKind, label string) int32 {
	if tr == nil || tr.paused {
		return -1
	}
	parent := int32(-1)
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{kind: k, parent: parent, label: label, start: int64(time.Since(tr.t0))})
	tr.open = append(tr.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (tr *tracer) end(id int32) {
	if id < 0 {
		return
	}
	tr.spans[id].end = int64(time.Since(tr.t0))
	tr.open = tr.open[:len(tr.open)-1]
}

func (tr *tracer) mark(b boundary) {
	if tr != nil {
		tr.marks = append(tr.marks, b)
	}
}

// kindTotal sums one span kind.
type kindTotal struct {
	Count  int   `json:"count"`
	SumNS  int64 `json:"sum_ns"`
	SelfNS int64 `json:"self_ns"`
}

// selfTimes returns each span's duration minus the time its direct
// children cover (children of one parent never overlap: the harness is one
// goroutine).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// totals aggregates spans by kind, restricted to those under a slice span
// whose label is sliceLabel ("" = every span).
func totals(spans []span, sliceLabel string) [nSpanKinds]kindTotal {
	self := selfTimes(spans)
	var out [nSpanKinds]kindTotal
	inside := make([]bool, len(spans))
	for i, s := range spans {
		switch {
		case sliceLabel == "":
			inside[i] = true
		case s.kind == spanSlice:
			inside[i] = s.label == sliceLabel
		case s.parent >= 0:
			inside[i] = inside[s.parent]
		}
		if inside[i] {
			out[s.kind].Count++
			out[s.kind].SumNS += s.end - s.start
			out[s.kind].SelfNS += self[i]
		}
	}
	return out
}

// write emits the trace as benchmark/out/trace-<workload>.json.
func (tr *tracer) write(dir, workload string, seed uint64) (string, error) {
	type jsonSpan struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Label  string `json:"label,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Run    string `json:"run"`
	}
	out := struct {
		Workload   string               `json:"workload"`
		Seed       uint64               `json:"seed"`
		Run        string               `json:"run"`
		ByKind     map[string]kindTotal `json:"by_kind"`
		Boundaries []boundary           `json:"boundaries"`
		Spans      []jsonSpan           `json:"spans"`
	}{Workload: workload, Seed: seed, Run: tr.runID, ByKind: map[string]kindTotal{}, Boundaries: tr.marks}
	for k, t := range totals(tr.spans, "") {
		if t.Count > 0 {
			out.ByKind[spanNames[k]] = t
		}
	}
	out.Spans = make([]jsonSpan, len(tr.spans))
	for i, s := range tr.spans {
		out.Spans[i] = jsonSpan{ID: i, Name: spanNames[s.kind], Label: s.label,
			Start: s.start, End: s.end, Parent: s.parent, Run: tr.runID}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
