package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Parent is the id of the enclosing span (-1 at
// the root); Run is the workload round the span belongs to.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op returning -1.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   int32
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRun stamps later spans with round r.
func (t *tracer) setRun(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = int32(r)
	t.mu.Unlock()
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// span records a finished span under parent from wall-clock times, for
// work timed in another process.
func (t *tracer) span(name string, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// durations returns the durations of every closed span called name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes computes each span's self time — its duration minus the
// part of its interval its children cover — and sums both per name.
func selfTimes(spans []span) []selfRow {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		row := rows[s.Name]
		if row == nil {
			row = &selfRow{name: s.Name}
			rows[s.Name] = row
		}
		dur := s.End - s.Start
		row.count++
		row.total += time.Duration(dur)
		row.self += time.Duration(dur - covered(s, kids[s.ID]))
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			sum += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return sum + hi - lo
}

// printSelf prints the per-span-name self-time table.
func (t *tracer) printSelf() {
	t.mu.Lock()
	rows := selfTimes(t.spans)
	t.mu.Unlock()
	fmt.Println("spans (self time, descending):")
	fmt.Printf("  %-28s %9s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, r := range rows {
		fmt.Printf("  %-28s %9d %12.3f %12.3f\n", r.name, r.count,
			float64(r.total.Nanoseconds())/1e6, float64(r.self.Nanoseconds())/1e6)
	}
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
