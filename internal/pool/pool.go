// Package pool provides a bounded FIFO worker pool. The replication
// scheduler (core.SubmitSeries) drains replications through it, for one
// scenario under core.RunContext or the whole study matrix under
// experiment.RunSweep; the sharded million-phone runner drains per-shard
// event-queue windows through it. Both rely on the same two properties:
// tasks may be submitted while workers run, and Close drains the queue
// before joining the workers.
package pool

import (
	"runtime"
	"sync"
)

// Pool is a bounded FIFO worker pool. The zero value is not usable;
// construct with New.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queue[head:] are the pending tasks. Popping advances head instead of
	// reslicing, and a drained queue rewinds to the start of its backing
	// array, so a steady submit-and-drain cycle (the shard runner's window
	// loop) reuses one array and Submit allocates nothing.
	queue  []func()
	head   int
	closed bool
	done   sync.WaitGroup
}

// New starts workers goroutines (GOMAXPROCS when workers <= 0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.done.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.done.Done()
	for {
		p.mu.Lock()
		for p.head == len(p.queue) && !p.closed {
			p.cond.Wait()
		}
		if p.head == len(p.queue) {
			p.mu.Unlock()
			return
		}
		fn := p.queue[p.head]
		p.queue[p.head] = nil
		p.head++
		if p.head == len(p.queue) {
			p.queue = p.queue[:0]
			p.head = 0
		}
		p.mu.Unlock()
		fn()
	}
}

// Submit enqueues one task. Tasks run in FIFO order across the workers.
// Submitting after Close panics (a scheduler bug, not a runtime condition).
// A task that panics takes the process down, exactly like a bare goroutine:
// callers that need crash isolation recover inside the task.
func (p *Pool) Submit(fn func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("pool: submit on closed pool")
	}
	p.queue = append(p.queue, fn)
	p.mu.Unlock()
	p.cond.Signal()
}

// Close marks the queue complete, lets workers drain it, and joins them.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.done.Wait()
}
