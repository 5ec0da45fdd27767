package pool

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func TestClassIndex(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{0, -1},
		{-5, -1},
		{1, 0},
		{64, 0},
		{65, 1},
		{128, 1},
		{1 << 24, maxBits - minBits},
		{1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := classIndex(c.n); got != c.want {
			t.Errorf("classIndex(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetReturnsZeroedRecycledBuffer(t *testing.T) {
	b := GetUninit(100)
	for i := range b {
		b[i] = 42
	}
	Put(b)
	// The recycled buffer (possibly the same one) must come back zeroed.
	c := Get(100)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("Get returned dirty element %d = %v", i, v)
		}
	}
	Put(c)
}

func TestGetLengthAndCapacityClass(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 1 << 20} {
		for round := 0; round < 2; round++ { // fresh, then (likely) recycled
			b := GetUninit(n)
			if len(b) != n || cap(b) != 1<<(minBits+classIndex(n)) {
				t.Fatalf("GetUninit(%d) has len %d, cap %d", n, len(b), cap(b))
			}
			Put(b)
		}
	}
	// Outside the pooled range: plain allocation, exact capacity.
	big := GetUninit(1<<24 + 1)
	if len(big) != 1<<24+1 {
		t.Fatalf("oversize GetUninit has len %d", len(big))
	}
}

func TestPutForeignBufferDropped(t *testing.T) {
	before := Stats()
	Put(make([]float32, 100)) // cap 100 is not a power of two
	if after := Stats(); after.Puts != before.Puts {
		t.Fatal("non-power-of-two buffer was accepted")
	}
}

func TestDisable(t *testing.T) {
	defer Disable()()
	before := Stats()
	b := Get(128)
	Put(b)
	after := Stats()
	if after.Gets != before.Gets || after.Puts != before.Puts {
		t.Fatal("disabled arena still counts traffic")
	}
}

func TestScopeReleasesAll(t *testing.T) {
	s := NewScope()
	before := Stats()
	s.Get(128)
	s.GetUninit(256)
	if len(s.bufs) != 2 {
		t.Fatalf("scope tracks %d buffers, want 2", len(s.bufs))
	}
	mid := Stats()
	if mid.Gets-before.Gets != 2 {
		t.Fatalf("scope drew %d buffers, want 2", mid.Gets-before.Gets)
	}
	s.ReleaseAll()
	after := Stats()
	if leaked := (after.Gets - after.Puts) - (before.Gets - before.Puts); leaked != 0 {
		t.Fatalf("scope leaked %d buffers", leaked)
	}
	if len(s.bufs) != 0 {
		t.Fatal("scope not empty after ReleaseAll")
	}
}

// TestKeepingScopeReusesItsBuffers: a keeping scope's second step borrows
// the very buffers its first released, zero-filled where asked, without a
// miss even after garbage collections have emptied the arena, and the
// traffic counters still balance across each release.
func TestKeepingScopeReusesItsBuffers(t *testing.T) {
	s := NewKeepingScope()
	step := func() (a, b []float32) {
		a, b = s.Get(100), s.GetUninit(3000)
		a[0], b[0] = 1, 1
		return a, b
	}
	a1, b1 := step()
	s.ReleaseAll()
	runtime.GC()
	runtime.GC()
	before := Stats()
	a2, b2 := step()
	if unsafe.SliceData(a2) != unsafe.SliceData(a1) || unsafe.SliceData(b2) != unsafe.SliceData(b1) {
		t.Fatal("the second step did not reuse the buffers the first released")
	}
	if len(a2) != 100 || len(b2) != 3000 {
		t.Fatalf("reused buffers have lengths %d and %d, want 100 and 3000", len(a2), len(b2))
	}
	s.ReleaseAll()
	if a3 := s.Get(100); a3[0] != 0 {
		t.Fatal("Get on a keeping scope returned a dirty buffer")
	}
	s.ReleaseAll()
	after := Stats()
	if after.Misses != before.Misses {
		t.Fatalf("keeping scope missed %d times after collection", after.Misses-before.Misses)
	}
	if after.Gets-before.Gets != 3 || after.Puts-before.Puts != 3 {
		t.Fatalf("3 borrows counted as %d gets, %d puts", after.Gets-before.Gets, after.Puts-before.Puts)
	}
}

func TestNilScopeDegradesToMake(t *testing.T) {
	var s *Scope
	before := Stats()
	b := s.Get(128)
	if len(b) != 128 {
		t.Fatalf("nil scope Get len %d", len(b))
	}
	for _, v := range b {
		if v != 0 {
			t.Fatal("nil scope Get not zeroed")
		}
	}
	if len(s.GetUninit(64)) != 64 {
		t.Fatal("nil scope GetUninit wrong length")
	}
	s.ReleaseAll() // must not panic
	if after := Stats(); after.Gets != before.Gets {
		t.Fatal("nil scope drew from the arena")
	}
}

func TestConcurrentGetPut(t *testing.T) {
	before := Stats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b := Get(512)
				for j := range b {
					if b[j] != 0 {
						panic("dirty buffer under concurrency")
					}
				}
				b[0] = 1
				Put(b)
			}
		}()
	}
	wg.Wait()
	// the striped counters sum exactly, whichever goroutine touched them
	if after := Stats(); after.Gets-before.Gets != 8000 || after.Puts-before.Puts != 8000 {
		t.Fatalf("8,000 Get/Put pairs counted as %d gets, %d puts",
			after.Gets-before.Gets, after.Puts-before.Puts)
	}
}
