package main

import (
	"strconv"
	"time"

	"repro/internal/obs/trace"
)

// spanSet indexes one traced unit's finished spans.
type spanSet struct {
	spans []trace.SpanRecord
	byID  map[uint64]int
}

func newSpanSet(tr *trace.Tracer) spanSet {
	spans := tr.Spans()
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	return spanSet{spans: spans, byID: byID}
}

// named returns the spans called name.
func (ss spanSet) named(name string) []trace.SpanRecord {
	var out []trace.SpanRecord
	for _, s := range ss.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// hasAncestor reports whether one of s's ancestors is called name.
func (ss spanSet) hasAncestor(s trace.SpanRecord, name string) bool {
	for p := s.Parent; p != 0; {
		i, ok := ss.byID[p]
		if !ok {
			return false
		}
		if ss.spans[i].Name == name {
			return true
		}
		p = ss.spans[i].Parent
	}
	return false
}

func dur(s trace.SpanRecord) time.Duration { return s.End - s.Start }

// totalSeconds sums the durations of spans.
func totalSeconds(spans []trace.SpanRecord) float64 {
	var t time.Duration
	for _, s := range spans {
		t += dur(s)
	}
	return t.Seconds()
}

// attr returns the value of a span attribute, or "".
func attr(s trace.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// sumAttr sums an integer attribute over spans.
func sumAttr(spans []trace.SpanRecord, key string) float64 {
	var t float64
	for _, s := range spans {
		v, err := strconv.ParseUint(attr(s, key), 10, 64)
		if err == nil {
			t += float64(v)
		}
	}
	return t
}
