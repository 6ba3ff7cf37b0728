package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call into a layer of the program, recorded by the
// benchmark's own wrappers or imported from the program's hooks.
// Virtual spans carry a duration without an interval: the eval-stage
// totals of telemetry.EvalTimer, which say how long a stage ran inside
// the parent span but not when.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
	Virtual bool   `json:"virtual,omitempty"`
}

// Dur returns the span's duration.
func (s *Span) Dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is
// inert, so the untraced passes pay one nil check per wrapper call.
type Tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

func (t *Tracer) rel(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// Begin opens a span and returns its ID (-1 on a nil tracer).
func (t *Tracer) Begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Name: name, Layer: layer,
		StartNS: t.rel(time.Now()), EndNS: -1})
	return len(t.spans) - 1
}

// End closes the span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNS = t.rel(time.Now())
}

// Add records a span whose interval is already known.
func (t *Tracer) Add(name, layer string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Name: name, Layer: layer,
		StartNS: t.rel(start), EndNS: t.rel(end)})
	return len(t.spans) - 1
}

// AddVirtual records d of work in layer inside parent, without an
// interval.
func (t *Tracer) AddVirtual(name, layer string, parent int, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Name: name, Layer: layer,
		EndNS: d.Nanoseconds(), Virtual: true})
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its real child spans cover, minus the durations
// of its virtual children. A virtual span's self time is its duration.
// Self time never goes below zero: sampled stage totals can exceed the
// span they were attributed to by clock granularity.
func (t *Tracer) SelfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.Virtual {
			self[i] = s.Dur()
			continue
		}
		var ivs [][2]int64
		var virtual time.Duration
		for _, c := range children[i] {
			cs := &t.spans[c]
			if cs.Virtual {
				virtual += cs.Dur()
				continue
			}
			lo, hi := max(cs.StartNS, s.StartNS), min(cs.EndNS, s.EndNS)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[i] = s.Dur() - time.Duration(unionLen(ivs)) - virtual
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// LayerSelf sums self time per layer.
func (t *Tracer) LayerSelf() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range t.SelfTimes() {
		out[t.spans[i].Layer] += d
	}
	return out
}

// Named returns the durations of every span with the given name.
func (t *Tracer) Named(name string) []time.Duration {
	var out []time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, t.spans[i].Dur())
		}
	}
	return out
}

// WriteJSONL writes every span, one JSON object a line, to path.
func (t *Tracer) WriteJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
