package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one interval of the benchmark's own work: a build, a warm-up, a
// run chunk or fleet epoch, or a layer-drive batch. Parent is the index of
// the enclosing span (-1 at the top level).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// recorder keeps the benchmark's spans in memory; write saves them when
// the run ends. Times are nanoseconds since the recorder was created.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (r *recorder) begin(name string) int {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id (the innermost open span) and returns its length.
func (r *recorder) end(id int) time.Duration {
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", r.spans[id].Name))
	}
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id]
	s.End = int64(time.Since(r.t0))
	return time.Duration(s.End - s.Start)
}

// time runs fn inside a span named name and returns its length.
func (r *recorder) time(name string, fn func()) time.Duration {
	id := r.begin(name)
	fn()
	return r.end(id)
}

// durations returns the lengths of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write saves the spans as JSON to path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
