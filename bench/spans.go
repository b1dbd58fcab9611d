package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval, as written to the spans file. Spans of
// one request share req; a root span has parent 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the run ends. All methods are
// safe for concurrent use.
type spanLog struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// newID reserves a span ID, so that children can name a parent that is
// recorded after them.
func (l *spanLog) newID() int64 { return l.ids.Add(1) }

// put records a finished span.
func (l *spanLog) put(id, parent, req int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// time runs f as a span and returns its duration.
func (l *spanLog) time(parent, req int64, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	l.put(l.newID(), parent, req, name, start, end)
	return end.Sub(start)
}

// perReq sums, per request, the durations of the spans with the given
// names, and returns the sums in microseconds in request order.
func (l *spanLog) perReq(names ...string) []float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	sums := map[int64]time.Duration{}
	for _, s := range l.spans {
		if want[s.Name] {
			sums[s.Req] += s.dur()
		}
	}
	reqs := make([]int64, 0, len(sums))
	for r := range sums {
		reqs = append(reqs, r)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		out[i] = float64(sums[r]) / float64(time.Microsecond)
	}
	return out
}

// durations returns the durations of the spans with the given name, in
// microseconds.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Microsecond))
		}
	}
	return out
}

// total returns the summed duration of the spans with the given name.
func (l *spanLog) total(name string) time.Duration {
	var d time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its children cover. Children run on their
// parent's goroutine, one after another, so their durations add up.
func (l *spanLog) selfTimes() map[string]time.Duration {
	covered := map[int64]time.Duration{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	for _, s := range l.spans {
		d := s.dur() - covered[s.ID]
		if d < 0 {
			d = 0
		}
		self[s.Name] += d
	}
	return self
}

// write stores the spans as a JSON array.
func (l *spanLog) write(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
