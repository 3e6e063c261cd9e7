package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetireWithoutGuardsFreesImmediately(t *testing.T) {
	m := NewManager()
	freed := false
	m.Retire(func() { freed = true })
	if n := m.Collect(); n != 1 {
		t.Fatalf("Collect freed %d, want 1", n)
	}
	if !freed {
		t.Fatal("free callback did not run")
	}
	if m.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", m.Pending())
	}
}

func TestActiveGuardBlocksReclamation(t *testing.T) {
	m := NewManager()
	g := m.Enter()
	freed := false
	m.Retire(func() { freed = true })
	if n := m.Collect(); n != 0 {
		t.Fatalf("Collect freed %d with an active older guard, want 0", n)
	}
	if freed {
		t.Fatal("object freed while an older guard was active")
	}
	g.Leave()
	if n := m.Collect(); n != 1 {
		t.Fatalf("Collect freed %d after guard left, want 1", n)
	}
	if !freed {
		t.Fatal("object not freed after guard left")
	}
}

func TestYoungerGuardDoesNotBlock(t *testing.T) {
	m := NewManager()
	m.Retire(nil) // tag below the epoch of the next guard
	g := m.Enter()
	defer g.Leave()
	if n := m.Collect(); n != 1 {
		t.Fatalf("Collect freed %d, want 1: guard entered after retire must not block", n)
	}
}

func TestRefreshUnblocks(t *testing.T) {
	m := NewManager()
	g := m.Enter()
	freed := false
	m.Retire(func() { freed = true })
	if m.Collect() != 0 {
		t.Fatal("premature reclamation")
	}
	g.Refresh() // the operation restarted in a new epoch
	if m.Collect() != 1 || !freed {
		t.Fatal("refresh did not unblock reclamation")
	}
	g.Leave()
}

func TestManyRetirementsOrdered(t *testing.T) {
	m := NewManager()
	guards := make([]*Guard, 5)
	for i := range guards {
		guards[i] = m.Enter()
		m.Retire(nil)
	}
	// guard[i] was entered before retirement i, so exactly i retirements
	// are reclaimable once guards 0..i-1 leave.
	for i := range guards {
		guards[i].Leave()
		got := m.Collect()
		if got != 1 {
			t.Fatalf("after releasing guard %d: Collect = %d, want 1", i, got)
		}
	}
}

func TestConcurrentGuards(t *testing.T) {
	m := NewManager()
	var freedCount atomic.Int64
	var wg sync.WaitGroup
	const workers = 8
	const iters = 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g := m.Enter()
				if i%10 == 0 {
					m.Retire(func() { freedCount.Add(1) })
				}
				g.Leave()
			}
		}()
	}
	done, collected := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(collected)
		for {
			select {
			case <-done:
				return
			default:
				m.Collect()
			}
		}
	}()
	wg.Wait()
	close(done)
	// The collector may be inside a Collect holding objects it has taken
	// off the list and not yet freed: wait it out before counting.
	<-collected
	m.Collect()
	want := int64(workers * iters / 10)
	if got := freedCount.Load(); got != want {
		t.Fatalf("freed %d, want %d", got, want)
	}
	if m.Pending() != 0 {
		t.Fatalf("Pending = %d after quiescence", m.Pending())
	}
}

func TestBackgroundCollector(t *testing.T) {
	m := NewManager()
	var freed atomic.Bool
	c := m.StartCollector(time.Millisecond)
	m.Retire(func() { freed.Store(true) })
	deadline := time.Now().Add(2 * time.Second)
	for !freed.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	if !freed.Load() {
		t.Fatal("background collector never reclaimed the object")
	}
}

func TestCollectorStopRunsFinalPass(t *testing.T) {
	m := NewManager()
	c := m.StartCollector(time.Hour) // period too long to fire
	freed := false
	m.Retire(func() { freed = true })
	c.Stop()
	if !freed {
		t.Fatal("Stop did not run a final collection")
	}
}

func TestGuardReuseIsSafe(t *testing.T) {
	m := NewManager()
	for i := 0; i < 1000; i++ {
		g := m.Enter()
		if g.epoch.Load() == 0 {
			t.Fatal("active guard has zero epoch")
		}
		g.Leave()
	}
	// Every registered guard must be inactive now, so nothing blocks
	// collection.
	m.Retire(nil)
	if m.Collect() != 1 {
		t.Fatal("stale guard epoch blocked collection after Leave")
	}
}
