package offnetrisk

import (
	"context"
	"errors"
)

// flight is one memoized experiment result. It is in flight until done is
// closed; after that val or err is set and never changes.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// cached returns the run's result for key, computing it with fn on the
// first call (fetch on miss, then serve from cache). The key names the
// experiment and its arguments ("colocation", "peering/Google"); the
// pipeline's fields are fixed before the first experiment, so they need no
// place in it. Concurrent callers of one key wait for a single computation
// and share its result. A failed computation is not cached: its entry is
// dropped before its waiters wake, so the next call computes again. Waiters
// share a failure, except a context error, which belongs to the caller that
// computed — they retry with their own fn and context instead.
//
// Every caller receives the same value: cached results are shared and must
// be treated as read-only.
func cached[T any](p *Pipeline, key string, fn func() (T, error)) (T, error) {
	for {
		p.resMu.Lock()
		f, ok := p.results[key]
		if !ok {
			f = &flight{done: make(chan struct{})}
			p.results[key] = f
			p.resMu.Unlock()
			return compute(p, key, f, fn)
		}
		p.resMu.Unlock()
		<-f.done
		if f.err == nil {
			return f.val.(T), nil
		}
		if !errors.Is(f.err, context.Canceled) && !errors.Is(f.err, context.DeadlineExceeded) {
			var zero T
			return zero, f.err
		}
	}
}

// errPanicked is what waiters receive when the computation they wait for
// panicked; the panic itself continues up the computing caller's stack.
var errPanicked = errors.New("offnetrisk: experiment panicked")

// compute runs fn as key's flight and publishes the outcome, also when fn
// panics, so no waiter blocks forever. A failed flight leaves the cache
// before its waiters wake: a retrying waiter starts a new flight instead
// of finding this one again.
func compute[T any](p *Pipeline, key string, f *flight, fn func() (T, error)) (v T, err error) {
	err = errPanicked
	defer func() {
		if err != nil {
			p.resMu.Lock()
			delete(p.results, key)
			p.resMu.Unlock()
		}
		f.val, f.err = v, err
		close(f.done)
	}()
	return fn()
}
