package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer was created
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for a root
	Req    int64         `json:"req"`    // request (or sweep) the span belongs to
}

// tracer keeps spans and per-layer values in memory until the run ends. A
// nil *tracer is the untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	vals  map[string][]float64
	rates map[string]*[2]float64 // name -> summed count and seconds
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), vals: map[string][]float64{}, rates: map[string]*[2]float64{}}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.t0)
}

// do runs f inside a span named name.
func (t *tracer) do(name string, parent int, req int64, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// value records one observation of a layer metric that is not a duration
// (a rate, a count, a ratio, a size).
func (t *tracer) value(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.vals[name] = append(t.vals[name], v)
}

// rate adds count units of work done in d to a per-second layer metric,
// which reports the summed count over the summed time.
func (t *tracer) rate(name string, count int64, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rates[name]
	if r == nil {
		r = new([2]float64)
		t.rates[name] = r
	}
	r[0] += float64(count)
	r[1] += d.Seconds()
}

// has reports whether metric (a per-layer metric name) already has data.
func (t *tracer) has(metric string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.vals[metric]) > 0 || t.rates[metric] != nil {
		return true
	}
	for _, s := range t.spans {
		if s.Name+"_ms" == metric {
			return true
		}
	}
	return false
}

// selfTimes maps each span name to the self times of its spans in
// milliseconds: a span's duration minus the durations of its children
// (children of one span never overlap in this benchmark).
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], ms(s.End-s.Start-child[i]))
	}
	return out
}

// layerMetric is a rate's summed count over its summed time, or else the
// median of the layer's observations: recorded values, or span self times
// for a "_ms" metric recorded as spans.
func (t *tracer) layerMetric(name string, self map[string][]float64) (float64, bool) {
	t.mu.Lock()
	vs, r := t.vals[name], t.rates[name]
	t.mu.Unlock()
	if r != nil {
		if r[1] <= 0 {
			return 0, false
		}
		return r[0] / r[1], true
	}
	if len(vs) == 0 && len(name) > 3 && name[len(name)-3:] == "_ms" {
		vs = self[name[:len(name)-3]]
	}
	if len(vs) == 0 {
		return 0, false
	}
	return median(vs), true
}

// dump writes every span as one JSON line to path.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
