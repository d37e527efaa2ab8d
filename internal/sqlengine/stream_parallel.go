package sqlengine

import (
	"errors"
	"sync"
)

// This file implements the morsel dispatcher: an order-preserving parallel
// pipe that fans work items (source chunks) out to N pipeline workers and
// reassembles their outputs in input order. The source is pulled under the
// pipe's lock (chunk sources are inherently serial), each pulled item gets a
// monotonically increasing sequence number, workers transform items
// concurrently, and the consumer emits results strictly by sequence — so a
// pipeline produces the same chunk sequence at every worker count. Errors
// are deterministic too: the consumer surfaces the error of the lowest
// failing sequence, after emitting every result before it.

// errStreamClosed is returned by a pipe whose stream was closed or cancelled
// without a more specific cause.
var errStreamClosed = errors.New("sql: stream closed")

// fanOut runs fn(0) … fn(n-1) and waits for all of them: inline when n is 1,
// so a one-worker pipeline starts no goroutines, concurrently otherwise.
func fanOut(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// parallelPipe fans pull() items out to `workers` goroutines running work()
// and yields outputs in pull order. With workers <= 1 it degenerates to an
// inline loop (no goroutines) over the same pull and work functions.
type parallelPipe[I, O any] struct {
	pull    func() (I, bool, error)
	work    func(item I, seq int) (O, error)
	workers int
	window  int

	mu       sync.Mutex
	cond     *sync.Cond
	results  map[int]O
	nextSeq  int // next sequence number to assign to a pulled item
	nextEmit int // next sequence number the consumer will emit
	srcDone  bool
	err      error
	errSeq   int
	stopped  bool
	stopErr  error
	started  bool

	// serial-mode state
	serialSeq  int
	serialDone bool
}

// newParallelPipe builds a pipe over the stream's workers, with a reassembly
// window of two items per worker, and registers its teardown with the stream.
// Workers are spawned lazily on first next() so pipelines that are never
// consumed never start goroutines.
func newParallelPipe[I, O any](se *streamExec, pull func() (I, bool, error), work func(I, int) (O, error)) *parallelPipe[I, O] {
	p := &parallelPipe[I, O]{
		pull:    pull,
		work:    work,
		workers: se.nw,
		window:  2 * se.nw,
		results: make(map[int]O),
		errSeq:  -1,
	}
	p.cond = sync.NewCond(&p.mu)
	se.onStop(p.stop)
	return p
}

// stop aborts the pipe: workers exit, and next() returns cause (or
// errStreamClosed when cause is nil). Safe to call concurrently and more
// than once; the first cause wins.
func (p *parallelPipe[I, O]) stop(cause error) {
	p.mu.Lock()
	if !p.stopped {
		p.stopped = true
		if cause == nil {
			cause = errStreamClosed
		}
		p.stopErr = cause
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

func (p *parallelPipe[I, O]) runWorker() {
	for {
		p.mu.Lock()
		for !p.stopped && p.err == nil && !p.srcDone && p.nextSeq-p.nextEmit >= p.window {
			p.cond.Wait()
		}
		if p.stopped || p.err != nil || p.srcDone {
			p.mu.Unlock()
			return
		}
		seq := p.nextSeq
		p.nextSeq++
		item, ok, perr := p.pull()
		if perr != nil {
			// The source failed while producing sequence seq: everything
			// before it still flows out, then the consumer reports perr.
			p.srcDone = true
			if p.err == nil || seq < p.errSeq {
				p.err, p.errSeq = perr, seq
			}
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		if !ok {
			p.nextSeq-- // hand the unused sequence number back
			p.srcDone = true
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()

		out, werr := p.work(item, seq)

		p.mu.Lock()
		if werr != nil {
			if p.err == nil || seq < p.errSeq {
				p.err, p.errSeq = werr, seq
			}
		} else {
			p.results[seq] = out
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// next returns the next output in input order. ok=false with a nil error
// marks exhaustion. After stop(), next returns the stop cause.
func (p *parallelPipe[I, O]) next() (O, bool, error) {
	var zero O
	if p.workers <= 1 {
		return p.serialNext()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		p.started = true
		for i := 0; i < p.workers; i++ {
			go p.runWorker()
		}
	}
	for {
		if p.stopped {
			return zero, false, p.stopErr
		}
		// The lowest failing sequence is the deterministic first error: all
		// results before it have been emitted, none after it ever will be.
		if p.err != nil && p.errSeq == p.nextEmit {
			return zero, false, p.err
		}
		if out, ok := p.results[p.nextEmit]; ok {
			delete(p.results, p.nextEmit)
			p.nextEmit++
			p.cond.Broadcast()
			return out, true, nil
		}
		if p.srcDone && p.nextEmit >= p.nextSeq {
			return zero, false, nil
		}
		p.cond.Wait()
	}
}

func (p *parallelPipe[I, O]) serialNext() (O, bool, error) {
	var zero O
	p.mu.Lock()
	stopped, stopErr, done := p.stopped, p.stopErr, p.serialDone
	p.mu.Unlock()
	if stopped {
		return zero, false, stopErr
	}
	if done {
		return zero, false, nil
	}
	item, ok, err := p.pull()
	if err != nil {
		return zero, false, err
	}
	if !ok {
		p.mu.Lock()
		p.serialDone = true
		p.mu.Unlock()
		return zero, false, nil
	}
	seq := p.serialSeq
	p.serialSeq++
	out, err := p.work(item, seq)
	if err != nil {
		return zero, false, err
	}
	return out, true, nil
}
