package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are recorded only by the
// benchmark's own code, around its calls into the program; the program
// itself is not instrumented. Name is "<layer>.<call>".
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level span
	Run    string `json:"run"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the run started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps the spans of one traced run in memory; write dumps them
// when the run ends. A nil *tracer records nothing, so code shared with the
// untraced runs calls it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
}

func newTracer(run string) *tracer { return &tracer{t0: time.Now(), run: run} }

// add records a span over [start, end] and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// begin opens a span that end closes; it lets children name their parent
// while the parent is still running.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// do runs fn inside a span and returns fn's wall time.
func (t *tracer) do(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, parent, start, end)
	return end.Sub(start)
}

type interval struct{ lo, hi int64 }

// covered is the total length of the union of the intervals.
func covered(iv []interval) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// childCover is the time the direct children of span id cover, clipped to
// the span itself.
func (t *tracer) childCover(id int) int64 {
	p := t.spans[id-1]
	var iv []interval
	for _, s := range t.spans {
		if s.Parent == id {
			iv = append(iv, interval{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	return covered(iv)
}

// selfTimes returns each layer's self time in milliseconds: the sum over its
// spans of the span's duration minus the part its child spans cover. The
// flow root span ("flow", no layer of its own) is left out.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.Name == "flow" {
			continue
		}
		self := s.End - s.Start - t.childCover(s.ID)
		out[s.layer()] += float64(self) / 1e6
	}
	return out
}

// write dumps the spans as JSON into dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
