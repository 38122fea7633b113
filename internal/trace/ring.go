package trace

// Last is a bounded log that keeps the most recent n entries,
// overwriting the oldest: the shape of every per-VM event log. It is
// not synchronized — one goroutine writes it at a time, and readers
// wait for a safe point (see VMRecorder).
type Last[T any] struct {
	buf  []T
	next int    // slot the next Append fills
	n    uint64 // entries ever appended
}

// NewLast builds a log retaining up to n entries (minimum 1).
func NewLast[T any](n int) *Last[T] {
	if n < 1 {
		n = 1
	}
	return &Last[T]{buf: make([]T, n)}
}

// Append records v, evicting the oldest entry when full.
func (l *Last[T]) Append(v T) {
	l.buf[l.next] = v
	l.n++
	if l.next++; l.next == len(l.buf) {
		l.next = 0
	}
}

// Snapshot returns the retained entries, oldest first.
func (l *Last[T]) Snapshot() []T {
	if l.n < uint64(len(l.buf)) {
		out := make([]T, l.next)
		copy(out, l.buf[:l.next])
		return out
	}
	out := make([]T, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// Len reports how many entries are retained.
func (l *Last[T]) Len() int { return int(min(l.n, uint64(len(l.buf)))) }

// Evicted reports how many entries were overwritten by newer ones.
func (l *Last[T]) Evicted() uint64 { return l.n - uint64(l.Len()) }
