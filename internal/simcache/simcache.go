// Package simcache provides content-addressed memoization for simulation
// results. A Key canonically identifies everything that determines a run's
// outcome (workload spec, co-runner placement, machine configuration,
// measurement options); the cache then collapses the repeated identical
// simulations that characterization sweeps, prediction studies and
// ablations issue into a single execution per key.
//
// The cache is safe for concurrent use and single-flight per key: when
// several goroutines request the same missing key at once, exactly one
// computes while the rest block and share its result. Results must be
// treated as immutable by callers (or defensively copied on return, as
// internal/profile does for counter slices).
package simcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs/trace"
)

// Key is a content hash identifying one simulation. Construct it with
// KeyOf; the zero Key is valid but only matches itself.
type Key [sha256.Size]byte

// Short returns an abbreviated hex form of the key for logs and trace
// attributes.
func (k Key) Short() string { return hex.EncodeToString(k[:4]) }

// KeyOf derives a Key from the canonical Go-syntax representation (%#v) of
// each part, in order. This is deterministic for value types built from
// scalars, strings, arrays and (pointers to) such structs — including
// unexported fields — which covers isa.Config, workload.Spec, rulers.Ruler
// and profile.Options. Parts must not contain maps (iteration order would
// make the key non-deterministic) or cyclic pointers.
func KeyOf(parts ...any) Key {
	h := sha256.New()
	for _, p := range parts {
		// \x1f separates parts so ("ab","c") cannot collide with ("a","bc").
		fmt.Fprintf(h, "%#v\x1f", p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits counts Do calls served from a stored or in-flight computation;
	// Misses counts Do calls that executed their compute function.
	Hits, Misses uint64
	// Bypasses counts runs the caller simulated without a lookup because
	// they have no key or must not be served from memory (see Bypass).
	Bypasses uint64
	// Entries is the number of completed results currently stored.
	Entries int
}

// Cache memoizes values of type V by Key with single-flight semantics.
// The zero value is not usable; construct with New.
type Cache[V any] struct {
	mu      sync.Mutex
	entries map[Key]*entry[V]

	hits     atomic.Uint64
	misses   atomic.Uint64
	bypasses atomic.Uint64
}

type entry[V any] struct {
	done chan struct{} // closed when the flight finishes (either way)
	val  V             // written before close(done)
	ok   bool          // false: the flight failed and the entry was removed
}

// New builds an empty cache.
func New[V any]() *Cache[V] {
	return &Cache[V]{entries: make(map[Key]*entry[V])}
}

// Do returns the cached value for k, computing it with compute on a miss.
// Concurrent callers of the same missing key block on the single in-flight
// computation and share its value (each counted as a hit). If compute
// fails or panics, nothing is cached, waiters of that flight retry, and
// the error (or panic) propagates to compute's caller. The returned bool
// reports whether the value came from the cache or another flight.
func (c *Cache[V]) Do(k Key, compute func() (V, error)) (V, bool, error) {
	return c.DoContext(context.Background(), k, func(context.Context) (V, error) { return compute() })
}

// DoContext is Do with request-context propagation, the single-flight
// form the qosd daemon and the context-aware profiling layer use. Two
// properties matter for serving:
//
//   - A cancelled *leader* does not poison followers: compute receives the
//     leader's ctx, and when it fails (including with ctx.Err()) nothing is
//     cached and the entry is removed, so a waiter whose own context is
//     still live retries and becomes the new leader instead of inheriting
//     the dead request's failure.
//   - A cancelled *waiter* stops waiting: blocked followers select on
//     their own ctx as well as the flight, so a client disconnect releases
//     the handler even while another request's computation is in flight.
func (c *Cache[V]) DoContext(ctx context.Context, k Key, compute func(ctx context.Context) (V, error)) (V, bool, error) {
	// With a tracer on ctx every lookup gets a span whose outcome attribute
	// distinguishes a hit, a single-flight wait behind another goroutine's
	// computation, and a miss that computed. tr == nil costs one context
	// lookup per call.
	tr := trace.FromContext(ctx)
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, false, err
		}
		c.mu.Lock()
		if e, ok := c.entries[k]; ok {
			c.mu.Unlock()
			var span *trace.Span
			if tr != nil {
				// An already-closed flight is a plain hit; an open one means
				// this caller blocks behind the in-flight leader.
				outcome := "hit"
				select {
				case <-e.done:
				default:
					outcome = "wait"
				}
				_, span = trace.Start(ctx, "simcache.lookup",
					trace.String("key", k.Short()), trace.String("outcome", outcome))
			}
			select {
			case <-e.done:
			case <-ctx.Done():
				span.SetAttr(trace.String("error", "cancelled"))
				span.End()
				return zero, false, ctx.Err()
			}
			if !e.ok {
				span.SetAttr(trace.String("retry", "flight-failed"))
				span.End()
				continue // that flight failed; try to compute ourselves
			}
			c.hits.Add(1)
			span.End()
			return e.val, true, nil
		}
		e := &entry[V]{done: make(chan struct{})}
		c.entries[k] = e
		c.mu.Unlock()
		c.misses.Add(1)

		var span *trace.Span
		if tr != nil {
			ctx, span = trace.Start(ctx, "simcache.compute",
				trace.String("key", k.Short()), trace.String("outcome", "miss"))
		}
		v, err := c.fly(k, e, func() (V, error) { return compute(ctx) })
		span.End()
		if err != nil {
			return zero, false, err
		}
		return v, false, nil
	}
}

// fly runs one computation for k, publishing into e. On failure (error or
// panic) the entry is removed so a later Do can retry.
func (c *Cache[V]) fly(k Key, e *entry[V], compute func() (V, error)) (v V, err error) {
	completed := false
	defer func() {
		if !completed { // error return or panic unwinding
			c.mu.Lock()
			delete(c.entries, k)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	v, err = compute()
	if err != nil {
		return v, err
	}
	e.val, e.ok = v, true
	completed = true
	return v, nil
}

// Get returns the completed value for k without computing. It does not
// wait for an in-flight computation and does not count toward hit/miss
// statistics.
func (c *Cache[V]) Get(k Key) (V, bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	c.mu.Unlock()
	if ok {
		select {
		case <-e.done:
			if e.ok {
				return e.val, true
			}
		default:
		}
	}
	var zero V
	return zero, false
}

// Bypass records one computation its caller ran without Do, so work the
// cache could not serve still shows in Stats.
func (c *Cache[V]) Bypass() { c.bypasses.Add(1) }

// Stats snapshots the cache counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	n := 0
	for _, e := range c.entries {
		select {
		case <-e.done:
			if e.ok {
				n++
			}
		default:
		}
	}
	c.mu.Unlock()
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Bypasses: c.bypasses.Load(), Entries: n}
}
