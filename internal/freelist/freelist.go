// Package freelist keeps a bounded stack of reusable objects, for
// values whose construction is expensive and whose callers can say when
// they are done with one: the simulated machine of internal/exec and the
// CST measurement cache of internal/model.
package freelist

import (
	"runtime"
	"sync"
)

// List is a last-in-first-out free list holding at most GOMAXPROCS
// objects, a capacity fixed when the list is first used. Unlike a
// sync.Pool it is never emptied by the garbage collector, so whether an
// object is reused does not depend on when collections run, and what it
// retains is bounded by construction. Last in, first out means that one
// goroutine taking and giving back in turn reuses one object. The zero
// List is ready to use; a List must not be copied after first use.
type List[T any] struct {
	mu    sync.Mutex
	items []T
}

// Get pops the object put most recently; ok is false when the list is
// empty.
func (l *List[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return v, false
	}
	v = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return v, true
}

// Put pushes v, or drops it for the garbage collector when the list is
// full.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.items == nil {
		l.items = make([]T, 0, runtime.GOMAXPROCS(0))
	}
	if len(l.items) < cap(l.items) {
		l.items = append(l.items, v)
	}
}
