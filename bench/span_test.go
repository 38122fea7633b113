package bench

import "testing"

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Two overlapping children cover [10,50) together: 40, not 55.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 25, End: 50},
		// A disjoint child covers [60,70).
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		// One that outlives the parent counts only inside it: [90,100).
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 130},
		// A grandchild does not reduce the grandparent's self time twice.
		{ID: 6, Parent: 2, Name: "a1", Start: 12, End: 20},
	}
	selfTimes(spans)
	want := map[string]int64{"parent": 100 - 40 - 10 - 10, "a": 30 - 8, "b": 25, "c": 10, "d": 40, "a1": 8}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestRecorderNestsAndPropagates(t *testing.T) {
	r := NewRecorder()
	root := r.Root(7)
	s := root.Begin("sample")
	c := s.Begin("call")
	leaf := c.Begin("leaf")
	leaf.End()
	c.End()
	s.End()
	open := root.Begin("never closed")
	_ = open

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d closed spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
		if sp.Req != 7 {
			t.Errorf("%s: req %d, want 7", sp.Name, sp.Req)
		}
	}
	if byName["sample"].Parent != 0 || byName["call"].Parent != byName["sample"].ID ||
		byName["leaf"].Parent != byName["call"].ID {
		t.Fatalf("bad nesting: %+v", spans)
	}

	var off Trace
	if off.Begin("x").On() {
		t.Fatal("a zero Trace must not record")
	}
	off.Begin("x").End()
	if (*Recorder)(nil).Spans() != nil {
		t.Fatal("nil recorder has spans")
	}
}
