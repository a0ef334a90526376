package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into the program: core.New,
// Model.Run or a layer driver. Parent is the index of the enclosing span,
// -1 for a root.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spans records spans in memory; they are written out once, at the end of
// the run. A nil *spans records nothing, which is how the untraced run
// measures with tracing off.
type spans struct {
	origin time.Time
	list   []span
	open   []int // stack of open span indexes
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its closer.
func (s *spans) begin(name string) func() {
	if s == nil {
		return func() {}
	}
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	idx := len(s.list)
	s.list = append(s.list, span{Name: name, Parent: parent, StartNS: time.Since(s.origin).Nanoseconds()})
	s.open = append(s.open, idx)
	return func() {
		s.list[idx].EndNS = time.Since(s.origin).Nanoseconds()
		s.open = s.open[:len(s.open)-1]
	}
}

// selfNS is a span's duration minus the part its child spans cover.
func (s *spans) selfNS(idx int) int64 {
	d := s.list[idx].EndNS - s.list[idx].StartNS
	for _, c := range s.list {
		if c.Parent == idx {
			d -= c.EndNS - c.StartNS
		}
	}
	return d
}

// write stores the spans, with the host fingerprint and the run's metrics,
// as one JSON document.
func (s *spans) write(path string, host hostInfo, ms map[string]metric) error {
	type spanOut struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	out := struct {
		Host    hostInfo          `json:"host"`
		Spans   []spanOut         `json:"spans"`
		Metrics map[string]metric `json:"metrics"`
	}{Host: host, Metrics: ms}
	for i, sp := range s.list {
		out.Spans = append(out.Spans, spanOut{sp, s.selfNS(i)})
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
