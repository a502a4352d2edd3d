package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Close must drain every submitted task before returning.
func TestCloseDrainsQueue(t *testing.T) {
	t.Parallel()

	p := New(3)
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		p.Submit(func() { ran.Add(1) })
	}
	p.Close()
	if got := ran.Load(); got != 100 {
		t.Errorf("ran %d tasks, want 100", got)
	}
}

// Tasks submitted from inside running tasks must still execute (the shard
// runner submits windows from the coordinating goroutine while workers run).
func TestSubmitWhileRunning(t *testing.T) {
	t.Parallel()

	p := New(2)
	var ran atomic.Int64
	var wg sync.WaitGroup
	wg.Add(10)
	for i := 0; i < 10; i++ {
		p.Submit(func() {
			defer wg.Done()
			ran.Add(1)
		})
	}
	wg.Wait()
	for i := 0; i < 10; i++ {
		p.Submit(func() { ran.Add(1) })
	}
	p.Close()
	if got := ran.Load(); got != 20 {
		t.Errorf("ran %d tasks, want 20", got)
	}
}

// Submit after Close is a programming error and must panic loudly rather
// than silently dropping work.
func TestSubmitAfterClosePanics(t *testing.T) {
	t.Parallel()

	p := New(1)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Error("Submit after Close did not panic")
		}
	}()
	p.Submit(func() {})
}

// A non-positive worker count falls back to GOMAXPROCS and still works.
func TestDefaultWorkerCount(t *testing.T) {
	t.Parallel()

	p := New(0)
	var ran atomic.Int64
	p.Submit(func() { ran.Add(1) })
	p.Close()
	if ran.Load() != 1 {
		t.Error("task did not run")
	}
}

// A steady submit-and-drain cycle — the shard runner's window loop —
// must reuse the queue's backing array instead of allocating per Submit.
func TestSubmitDrainCycleAllocationFree(t *testing.T) {
	p := New(2)
	defer p.Close()
	var wg sync.WaitGroup
	task := func() { wg.Done() }
	cycle := func() {
		wg.Add(4)
		for i := 0; i < 4; i++ {
			p.Submit(task)
		}
		wg.Wait()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("submit-and-drain cycle allocated %.1f times, want 0", allocs)
	}
}
