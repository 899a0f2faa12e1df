package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call, or batch of calls, from the benchmark into a
// layer's public function.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Calls    int64  `json:"calls"`
}

// maxSpans bounds the preallocated span buffer. Spans past it are counted
// and dropped rather than grown into, so tracing never allocates mid-run.
const maxSpans = 1 << 18

// batchCalls is how many sub-microsecond calls (CastSlot, Poll, Publish)
// share one span.
const batchCalls = 1024

// tracer records spans in memory and writes them out when the run ends.
// A nil *tracer is the untraced run: every method is a no-op. Spans are
// recorded from several goroutines, so appends take a lock; the hot
// sub-microsecond calls reach it once per batch.
type tracer struct {
	workload string
	epoch    time.Time

	mu      sync.Mutex
	rep     int
	spans   []span
	dropped int64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), rep: -1, spans: make([]span, 0, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setRep tags the spans that follow with a repetition index; -1 marks
// warm-up and gate calls, -2 the per-layer replays.
func (t *tracer) setRep(rep int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

// begin opens a span under parent (0 for none) and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	return t.record(name, parent, t.now(), -1, 0)
}

// end closes span id, crediting it with calls calls into the layer.
func (t *tracer) end(id int32, calls int64) {
	if t == nil || id <= 0 {
		return // untraced, or the span was dropped
	}
	now := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.EndNs = now
	s.Calls = calls
	t.mu.Unlock()
}

// record appends a span and returns its 1-based id (0 when dropped).
func (t *tracer) record(name string, parent int32, start, end, calls int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Workload: t.workload, Rep: t.rep,
		Name: name, StartNs: start, EndNs: end, Calls: calls,
	})
	return id
}

// batch accumulates the busy time of many short calls that are
// interleaved with other work, and emits one span per batchCalls calls.
// The span starts at the batch's first call and lasts its summed busy
// time, so self times stay busy times.
type batch struct {
	t      *tracer
	name   string
	parent int32
	start  int64
	busy   int64
	calls  int64
}

func (t *tracer) batch(name string, parent int32) *batch {
	if t == nil {
		return nil
	}
	return &batch{t: t, name: name, parent: parent}
}

// mark returns a timestamp to hand to done; 0 when untraced.
func (b *batch) mark() int64 {
	if b == nil {
		return 0
	}
	return b.t.now()
}

// done credits the calls made since mark to the batch.
func (b *batch) done(mark int64, calls int64) {
	if b == nil {
		return
	}
	if b.calls == 0 {
		b.start = mark
	}
	b.busy += b.t.now() - mark
	b.calls += calls
	if b.calls >= batchCalls {
		b.flush()
	}
}

func (b *batch) flush() {
	if b == nil || b.calls == 0 {
		return
	}
	b.t.record(b.name, b.parent, b.start, b.start+b.busy, b.calls)
	b.busy, b.calls = 0, 0
}

// spanTotal sums the spans of one name.
type spanTotal struct {
	selfNs int64
	calls  int64
}

// totals computes the self time and calls of every span name over the
// spans whose rep passes keep. Self time is a span's duration minus the
// part its child spans cover.
func (t *tracer) totals(keep func(rep int) bool) map[string]spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 && s.EndNs >= s.StartNs {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]spanTotal{}
	for _, s := range t.spans {
		if s.EndNs < s.StartNs || !keep(s.Rep) {
			continue // unclosed spans belong to a failed call
		}
		e := out[s.Name]
		e.selfNs += s.EndNs - s.StartNs - child[s.ID]
		e.calls += s.Calls
		out[s.Name] = e
	}
	return out
}

// durations lists, in ms, the durations of the spans named name whose rep
// passes keep.
func (t *tracer) durations(name string, keep func(rep int) bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ms []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= s.StartNs && keep(s.Rep) {
			ms = append(ms, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return ms
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if dropped > 0 {
		return fmt.Errorf("trace: %d spans dropped past the %d-span buffer", dropped, maxSpans)
	}
	return nil
}
