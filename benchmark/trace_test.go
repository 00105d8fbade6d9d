package main

import "testing"

func TestSpanSelfTime(t *testing.T) {
	// slice[0,100] { submit[10,30], drain[30,90] { age[40,50] } }, slice[100,150] {}
	spans := []span{
		{kind: spanSlice, parent: -1, start: 0, end: 100, label: "0"},
		{kind: spanSubmit, parent: 0, start: 10, end: 30},
		{kind: spanDrain, parent: 0, start: 30, end: 90},
		{kind: spanAge, parent: 2, start: 40, end: 50},
		{kind: spanSlice, parent: -1, start: 100, end: 150, label: "1"},
	}
	self := selfTimes(spans)
	for i, want := range []int64{20, 20, 50, 10, 50} {
		if self[i] != want {
			t.Errorf("span %d self time %d, want %d", i, self[i], want)
		}
	}
	all := totals(spans, "")
	if all[spanSlice].Count != 2 || all[spanSlice].SumNS != 150 || all[spanSlice].SelfNS != 70 {
		t.Errorf("slice totals %+v", all[spanSlice])
	}
	first := totals(spans, "0")
	if first[spanSlice].Count != 1 || first[spanDrain].SumNS != 60 || first[spanAge].Count != 1 {
		t.Errorf("totals under slice 0: %+v", first)
	}
	if second := totals(spans, "1"); second[spanSubmit].Count != 0 || second[spanSlice].SumNS != 50 {
		t.Errorf("totals under slice 1: %+v", second)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("t", 8)
	a := tr.begin(spanSlice)
	b := tr.begin(spanSubmit)
	tr.end(b)
	tr.paused = true
	if id := tr.begin(spanDrain); id != -1 {
		t.Errorf("paused tracer recorded span %d", id)
	}
	tr.end(-1)
	tr.paused = false
	c := tr.begin(spanDrain)
	tr.end(c)
	tr.end(a)
	if len(tr.spans) != 3 || tr.spans[b].parent != a || tr.spans[c].parent != a || tr.spans[a].parent != -1 {
		t.Errorf("spans %+v", tr.spans)
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
	var none *tracer
	none.end(none.begin(spanSlice)) // a nil tracer is a no-op
}
