package campaign

import "sync"

// flight is one computation of a cached value; done is closed once val and
// err are set, so every caller of its key waits on that one computation.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// flightCache is a single-flight cache: the first caller of a key computes
// its value and concurrent callers of the same key wait for that result
// instead of computing it again. Without this, shards of one campaign that
// reach a node together would each build the same golden runner and the
// same defect library, and how many copies were built would depend on how
// the requests happened to interleave. A failed computation is not kept:
// callers already waiting get its error, later ones compute again.
type flightCache[K comparable, V any] struct {
	// limit caps the entry count (0: unbounded). Past it a value is
	// computed for its caller without being cached.
	limit int

	mu sync.Mutex
	m  map[K]*flight[V]
}

// get returns key's value, computing it with compute on a miss. hit reports
// that this caller did not compute: the value was cached or in flight.
func (c *flightCache[K, V]) get(key K, compute func() (V, error)) (val V, hit bool, err error) {
	c.mu.Lock()
	if f, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	var f *flight[V]
	if c.limit <= 0 || len(c.m) < c.limit {
		if c.m == nil {
			c.m = make(map[K]*flight[V])
		}
		f = &flight[V]{done: make(chan struct{})}
		c.m[key] = f
	}
	c.mu.Unlock()
	val, err = compute()
	if f == nil {
		return val, false, err
	}
	f.val, f.err = val, err
	if err != nil {
		c.mu.Lock()
		delete(c.m, key)
		c.mu.Unlock()
	}
	close(f.done)
	return val, false, err
}

// each calls fn with every successfully computed value (in no particular
// order), skipping computations still in flight.
func (c *flightCache[K, V]) each(fn func(V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.m {
		select {
		case <-f.done:
			if f.err == nil {
				fn(f.val)
			}
		default:
		}
	}
}

// len returns the number of entries, computed or in flight.
func (c *flightCache[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
