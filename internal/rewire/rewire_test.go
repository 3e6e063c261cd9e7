package rewire

import (
	"sync"
	"testing"
)

func TestGetReturnsCorrectSize(t *testing.T) {
	p := NewPool(128, 0)
	b := p.Get()
	if len(b.Keys) != 128 || len(b.Vals) != 128 {
		t.Fatalf("buffer size %d/%d, want 128/128", len(b.Keys), len(b.Vals))
	}
}

func TestReuse(t *testing.T) {
	p := NewPool(16, 0)
	b := p.Get()
	b.Keys[0] = 42
	p.Put(b)
	b2 := p.Get()
	if b2 != b {
		t.Fatal("buffer was not reused")
	}
	if b3 := p.Get(); b3 == b {
		t.Fatal("a buffer handed out twice")
	}
}

func TestPutWrongSizeDropped(t *testing.T) {
	p := NewPool(16, 0)
	p.Put(&Buffer{Keys: make([]int64, 8), Vals: make([]int64, 8)})
	p.Put(nil)
	if n := len(p.free); n != 0 {
		t.Fatalf("free list holds %d, want 0 (wrong-size puts must be dropped)", n)
	}
	b := p.Get()
	if len(b.Keys) != 16 {
		t.Fatal("pool handed out a wrong-size buffer")
	}
}

func TestMaxFreeBound(t *testing.T) {
	p := NewPool(4, 2)
	bufs := []*Buffer{p.Get(), p.Get(), p.Get(), p.Get()}
	for _, b := range bufs {
		p.Put(b)
	}
	p.mu.Lock()
	n := len(p.free)
	p.mu.Unlock()
	if n != 2 {
		t.Fatalf("free list holds %d, want 2", n)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	p := NewPool(64, 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				b := p.Get()
				b.Keys[0] = seed
				b.Vals[0] = -seed
				if b.Keys[0] != seed || b.Vals[0] != -seed {
					t.Error("buffer aliasing detected")
					return
				}
				p.Put(b)
			}
		}(int64(w))
	}
	wg.Wait()
}
