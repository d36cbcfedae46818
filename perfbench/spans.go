package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one request (one simulation, one HTTP request) share req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled by selfTimes
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns the function that closes it along with
// the span's id (to pass as the parent of nested spans).
func (t *tracer) begin(name string, parent, req int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: -1})
	t.mu.Unlock()
	return id, func() {
		stop := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = stop
		t.mu.Unlock()
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, req int, fn func()) {
	_, end := t.begin(name, parent, req)
	fn()
	end()
}

// snapshot returns the closed spans with their self times filled in.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	selfTimes(out)
	return out
}

// selfTimes sets each span's Self to its duration minus the part of its
// interval that its children cover. Children may overlap one another
// (concurrent calls under one parent), so the covered part is the length
// of the union of their intervals, clipped to the parent's.
func selfTimes(spans []span) {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	c := append([][2]int64(nil), ivs...)
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range c {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			flush()
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	flush()
	return total
}

// spanSummary aggregates spans by name: call count, total and self time.
type spanSummary struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func summarize(spans []span) []spanSummary {
	idx := map[string]int{}
	var out []spanSummary
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanSummary{Name: s.Name})
		}
		out[i].Calls++
		out[i].TotalMs += float64(s.End-s.Start) / 1e6
		out[i].SelfMs += float64(s.Self) / 1e6
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// durations returns the durations in milliseconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
