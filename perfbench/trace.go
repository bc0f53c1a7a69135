package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a module, recorded by the benchmark
// around its own call site.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for none
	Op     int64  `json:"op"`     // operation the span belongs to, -1 for set-up
}

// maxLoggedSpans caps the spans kept for the trace file; the per-layer
// summaries use every span regardless.
const maxLoggedSpans = 200_000

// tracer keeps spans and per-layer samples in memory. A nil tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span               // guarded by mu
	dropped int                  // guarded by mu
	durs    map[string][]float64 // span durations in ms by name; guarded by mu
	values  map[string][]float64 // other per-layer samples; guarded by mu
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: map[string][]float64{}, values: map[string][]float64{}}
}

// spanRef identifies an open span.
type spanRef struct {
	idx   int32 // slot in the span log, -1 when not logged
	name  string
	start time.Time
}

// begin opens a span under parent (-1 for none). Its slot in the log
// is taken now, so spans opened inside it can name it as their parent.
func (t *tracer) begin(name string, parent int32, op int64) spanRef {
	if t == nil {
		return spanRef{idx: -1}
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	r := spanRef{idx: -1, name: name, start: now}
	if len(t.spans) < maxLoggedSpans {
		r.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Start: int64(now.Sub(t.t0)), Parent: parent, Op: op})
	} else {
		t.dropped++
	}
	return r
}

// end closes a span; its duration joins the name's samples.
func (t *tracer) end(r spanRef) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(r.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.durs[r.name] = append(t.durs[r.name], ms(d))
	if r.idx >= 0 {
		t.spans[r.idx].End = int64(now.Sub(t.t0))
	}
	return d
}

// addDuration records a duration under name without a span, for calls
// whose kind is known only after they return.
func (t *tracer) addDuration(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.durs[name] = append(t.durs[name], ms(d))
}

// sample records one per-layer value that is not a duration.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.values[name] = append(t.values[name], v)
}

func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.durs[name]...)
}

func (t *tracer) samples(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.values[name]...)
}

// write stores the span log as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
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
			f.Close() //ilint:allow errdrop — already failing
			return err
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close() //ilint:allow errdrop — already failing
		return err
	}
	return f.Close()
}

// layer adds a per-layer metric: the median of a span's durations in
// the given unit ("ms", "us" or "s").
func (t *tracer) layer(out metricSet, metric, spanName, unit string) error {
	d := t.durations(spanName)
	if len(d) == 0 {
		return fmt.Errorf("trace: no %s spans for %s", spanName, metric)
	}
	v := median(d)
	switch unit {
	case "us":
		v *= 1000
	case "s":
		v /= 1000
	}
	out.put(metric, v, unit)
	return nil
}
