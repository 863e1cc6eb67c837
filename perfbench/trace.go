package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced call at a layer boundary. Times are nanoseconds
// since the tracer started; spans of one query share its id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and boundary counters in memory; write dumps them
// when the run ends. A nil *tracer records nothing, so untraced code
// paths call it unconditionally.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: make(map[string]float64)}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, query int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Query: query, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add accumulates a counter measured at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// self sums the self time of every span with the given name: its
// duration minus the part of it that its child spans cover.
func (t *tracer) self(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start - covered(s, children[s.ID])
		}
	}
	return time.Duration(d)
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, hi int64 = 0, parent.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, parent.End)
		if end > lo {
			sum += end - lo
			hi = end
		}
	}
	return sum
}

// write dumps the spans and counters as JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{"meta": meta, "spans": t.spans, "counters": t.counters}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
