package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or a
// duration-only child read from the statistics the program returned
// (such a child has Derived set and no start of its own).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root
	Trace   int     `json:"trace"`  // one per solved problem or request
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // offset from the recorder's start
	DurMS   float64 `json:"dur_ms"`
	Derived bool    `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced run pays only a nil check.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	traces int
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// newTrace allocates a trace id (0 on a nil tracer).
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// record adds a timed span and returns its id (0 on a nil tracer).
func (t *tracer) record(trace, parent int, name string, start time.Time, dur time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartMS: ms(start.Sub(t.t0)), DurMS: ms(dur)})
	return id
}

// derive adds a duration-only child of parent.
func (t *tracer) derive(parent int, name string, durMS float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: p.Trace,
		Name: name, StartMS: p.StartMS, DurMS: durMS, Derived: true})
}

// selfTimes returns, per span name, the self time of every span: its
// duration minus its children's durations.
func (t *tracer) selfTimes() map[string][]float64 {
	if t == nil {
		return nil
	}
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.DurMS
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.DurMS-child[s.ID])
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
