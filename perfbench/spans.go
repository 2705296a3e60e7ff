package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call from the benchmark into the program's public
// API. Spans nest: Parent is the index of the enclosing open span, -1 at
// the top. Start and End are nanoseconds since the log began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int
	// measureAllocs names the spans whose heap allocation is summed into
	// allocBytes.
	measureAllocs string
	allocBytes    uint64
	allocStart    uint64
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(l.t0))})
	l.open = append(l.open, id)
	if name == l.measureAllocs {
		l.allocStart = totalAlloc()
	}
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = int64(time.Since(l.t0))
	l.open = l.open[:len(l.open)-1]
	if l.spans[id].Name == l.measureAllocs {
		l.allocBytes += totalAlloc() - l.allocStart
	}
}

// total returns the summed duration of every span with the given name.
func (l *spanLog) total(name string) time.Duration {
	var d int64
	for _, s := range l.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// write stores the spans as JSON lines in dir/<file>.
func (l *spanLog) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
