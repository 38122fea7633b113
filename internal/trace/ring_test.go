package trace

import "testing"

func TestLastOverwriteOldest(t *testing.T) {
	l := NewLast[int](4)
	if l.Len() != 0 || l.Evicted() != 0 {
		t.Fatalf("fresh Last: Len %d Evicted %d", l.Len(), l.Evicted())
	}
	l.Append(1)
	l.Append(2)
	if s := l.Snapshot(); len(s) != 2 || s[0] != 1 || s[1] != 2 {
		t.Fatalf("partial snapshot %v", s)
	}
	l.Append(3)
	l.Append(4)
	if s := l.Snapshot(); len(s) != 4 || s[0] != 1 || s[3] != 4 || l.Evicted() != 0 {
		t.Fatalf("exactly-full snapshot %v, evicted %d", s, l.Evicted())
	}
	for i := 5; i <= 10; i++ {
		l.Append(i)
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	s := l.Snapshot()
	want := []int{7, 8, 9, 10}
	for i, v := range want {
		if s[i] != v {
			t.Fatalf("snapshot %v, want %v", s, want)
		}
	}
	if l.Evicted() != 6 {
		t.Fatalf("Evicted = %d, want 6", l.Evicted())
	}
}
