package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public function.
// Spans are recorded from outside — around the call, in this package — so the
// system under test carries no hook for them. Name is "<layer>.<what>"; the
// part before the first dot is the layer the span's self time is charged to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a lane root
	Op     int    `json:"op"`     // op the span belongs to; -1 outside any op
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Model marks a child that was not observed in place but re-driven (the
	// same public entry point on the same inputs, after the round) or derived
	// from a re-driven rate. Its duration is meaningful, its position is not.
	Model bool `json:"model,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layerOf returns the layer a span name is charged to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// the untraced configuration: every method is a no-op, so workloads run the
// same code with tracing on and off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(parent, op int, name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// at is a position in the span tree: where the next span will hang.
type at struct {
	t      *tracer
	parent int
	op     int
}

// lane opens a root span for one load-generating goroutine of one round.
// Spans below a lane are sequential, which is what makes self-time
// subtraction valid; concurrency lives between lanes, never inside one.
func (t *tracer) lane(name string) (at, func()) {
	id := t.begin(-1, -1, name)
	return at{t: t, parent: id, op: -1}, func() { t.end(id) }
}

// open starts a nesting span and returns the position inside it.
func (a at) open(name string) (at, func()) {
	id := a.t.begin(a.parent, a.op, name)
	return at{t: a.t, parent: id, op: a.op}, func() { a.t.end(id) }
}

// inOp returns the same position tagged with an op id.
func (a at) inOp(op int) at { a.op = op; return a }

// call times f as a leaf span and returns its duration (measured whether or
// not tracing is on, so latency samples come from the same clock reads).
func (a at) call(name string, f func()) time.Duration {
	id := a.t.begin(a.parent, a.op, name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	a.t.end(id)
	return d
}

// model records a re-driven or derived child of duration d.
func (a at) model(name string, d time.Duration) at {
	if a.t == nil {
		return a
	}
	if d < 0 {
		d = 0
	}
	t := a.t
	t.mu.Lock()
	id := len(t.spans)
	start := t.spans[a.parent].Start
	t.spans = append(t.spans, span{ID: id, Parent: a.parent, Op: a.op, Name: name, Start: start, End: start + int64(d), Model: true})
	t.mu.Unlock()
	return at{t: t, parent: id, op: a.op}
}

// under returns the position inside an existing span, for attaching model
// children after the fact.
func (t *tracer) under(id, op int) at { return at{t: t, parent: id, op: op} }

// foldSelf charges every span's self time — its duration minus what its
// children cover — to the span's layer, and returns the per-layer totals
// together with the summed lane time they add up to. Re-driven children
// measured on a noisier moment can nominally exceed their parent; they are
// then scaled to fit, so a parent's self time is never negative and the
// layers always sum to the lanes exactly.
func foldSelf(spans []span) (self map[string]time.Duration, lanes time.Duration) {
	kids := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	selfF := make(map[string]float64)
	var walk func(id int, budget float64)
	walk = func(id int, budget float64) {
		s := spans[id]
		d := float64(s.dur())
		var ksum float64
		for _, k := range kids[id] {
			ksum += float64(spans[k].dur())
		}
		scale := 1.0
		if ksum > d && ksum > 0 {
			scale = d / ksum
		}
		f := 0.0
		if d > 0 {
			f = budget / d
		}
		selfF[layerOf(s.Name)] += (d - ksum*scale) * f
		for _, k := range kids[id] {
			walk(k, float64(spans[k].dur())*scale*f)
		}
	}
	for _, s := range spans {
		if s.Parent < 0 {
			lanes += s.dur()
			walk(s.ID, float64(s.dur()))
		}
	}
	self = make(map[string]time.Duration, len(selfF))
	for l, v := range selfF {
		self[l] = time.Duration(v)
	}
	return self, lanes
}

// durationsByName groups span durations (milliseconds) by span name.
func durationsByName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], ms(s.dur()))
	}
	return out
}

// writeSpans stores the raw spans, one JSON object per line after a header
// line naming the run they came from.
func writeSpans(w io.Writer, header map[string]any, spans []span) error {
	bw := bufio.NewWriter(w)
	h, err := json.Marshal(header)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", h)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
