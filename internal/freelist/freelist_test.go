package freelist

import (
	"runtime"
	"sync"
	"testing"
)

func TestLIFO(t *testing.T) {
	var l List[int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty list reported an object")
	}
	l.Put(1)
	l.Put(2)
	for _, want := range []int{2, 1} {
		if v, ok := l.Get(); !ok || v != want {
			t.Fatalf("Get = %d, %v; want %d, true", v, ok, want)
		}
	}
	if _, ok := l.Get(); ok {
		t.Fatal("Get on a drained list reported an object")
	}
}

// TestBounded puts more objects than the list holds: it keeps
// GOMAXPROCS of them and drops the rest.
func TestBounded(t *testing.T) {
	var l List[*int]
	n := runtime.GOMAXPROCS(0)
	for i := 0; i < n+3; i++ {
		l.Put(new(int))
	}
	got := 0
	for {
		if _, ok := l.Get(); !ok {
			break
		}
		got++
	}
	if got != n {
		t.Fatalf("list kept %d objects, want GOMAXPROCS = %d", got, n)
	}
}

// TestConcurrent takes and gives back from many goroutines at once; an
// object is never handed to two holders at the same time.
func TestConcurrent(t *testing.T) {
	var l List[*int]
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v, ok := l.Get()
				if !ok {
					v = new(int)
				}
				if *v != 0 {
					t.Error("object handed to two holders at once")
					return
				}
				*v = 1
				runtime.Gosched()
				*v = 0
				l.Put(v)
			}
		}()
	}
	wg.Wait()
}
