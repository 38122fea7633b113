package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval the benchmark recorded around a call into
// the system. Spans of one sample or request share Req.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	// Self is the duration minus the union of the child spans'
	// intervals; filled in by Recorder.Spans.
	Self int64 `json:"self_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced code paths pay only a nil test.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span // spans[i].ID == i+1
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Trace is a position in the span tree: the span that new spans nest
// under. The zero Trace (or one over a nil Recorder) records nothing.
type Trace struct {
	rec *Recorder
	id  int64
	req int64
}

// Root positions a Trace at the root of the span tree: spans begun from
// it, and their descendants, carry request id req.
func (r *Recorder) Root(req int64) Trace { return Trace{rec: r, req: req} }

// On reports whether spans begun from t are recorded.
func (t Trace) On() bool { return t.rec != nil }

// Begin opens a child span of t and returns the Trace inside it.
func (t Trace) Begin(name string) Trace {
	r := t.rec
	if r == nil {
		return t
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: t.id, Req: t.req, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return Trace{rec: r, id: id, req: t.req}
}

// End closes the span t sits in. Closing a root Trace is a no-op.
func (t Trace) End() {
	r := t.rec
	if r == nil || t.id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[t.id-1].End = now
	r.mu.Unlock()
}

// Spans returns a copy of every closed span with its self time.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	r.mu.Unlock()
	selfTimes(out)
	return out
}

// selfTimes sets each span's Self to its duration minus the part of its
// interval covered by the union of its children, so children that
// overlap (concurrent calls under one parent) are not subtracted twice.
func selfTimes(spans []Span) {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			start, end := max(k.Start, p.Start), min(k.End, p.End)
			if end <= start {
				continue
			}
			if start > curEnd {
				covered += max(curEnd-curStart, 0)
				curStart, curEnd = start, end
			} else if end > curEnd {
				curEnd = end
			}
		}
		covered += max(curEnd-curStart, 0)
		p.Self = p.End - p.Start - covered
	}
}

// durations returns the durations, in unit, of the spans named name.
func durations(spans []Span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur())/float64(unit))
		}
	}
	return out
}

// WriteSpans stores spans at path as a JSON array.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
