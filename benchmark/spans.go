package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one interval recorded by the benchmark's own code around a call
// into a layer of the program. Times are wall-clock nanoseconds since the
// tracer was created; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	// Pass is the pass the span belongs to (-1 for isolation probes).
	Pass int `json:"pass"`
	// CPU is the process CPU time that passed inside the span.
	CPU int64 `json:"cpu_ns"`
	// Self is the span's duration minus the part its children cover,
	// filled in when the spans are written.
	Self int64 `json:"self_ns"`

	cpu0 float64
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes pay one nil check per layer call.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 at top level
	pass  int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1, pass: -1} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.open, Pass: t.pass, cpu0: cpuNow()})
	t.open = len(t.spans) - 1
	return t.open
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End, s.CPU = int64(time.Since(t.t0)), int64((cpuNow()-s.cpu0)*1e9)
	t.open = s.Parent
}

// selfTimes fills every span's Self: its duration minus the union of its
// direct children's intervals clipped to it.
func selfTimes(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// cpuOf sums the CPU seconds of the spans called name within pass.
func (t *tracer) cpuOf(name string, pass int) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name && s.Pass == pass {
			ns += s.CPU
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	selfTimes(t.spans)
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
