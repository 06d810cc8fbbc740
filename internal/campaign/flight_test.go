package campaign

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlightCacheSingleFlight checks that concurrent callers of one key
// share one computation, that a failed computation is retried by later
// callers, and that past its limit the cache computes without storing.
func TestFlightCacheSingleFlight(t *testing.T) {
	var c flightCache[string, int]
	var calls atomic.Int32
	release := make(chan struct{})
	const n = 16
	var hits atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.get("k", func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("get = %d, %v", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 || hits.Load() != n-1 {
		t.Fatalf("%d computations and %d hits for %d callers, want 1 and %d", calls.Load(), hits.Load(), n, n-1)
	}

	boom := errors.New("boom")
	if _, hit, err := c.get("bad", func() (int, error) { return 0, boom }); hit || err != boom {
		t.Fatalf("failed computation: hit=%v err=%v", hit, err)
	}
	if v, hit, err := c.get("bad", func() (int, error) { return 7, nil }); hit || err != nil || v != 7 {
		t.Fatalf("retry after failure: %d hit=%v err=%v", v, hit, err)
	}

	capped := flightCache[int, int]{limit: 2}
	for k := 0; k < 4; k++ {
		capped.get(k, func() (int, error) { return k, nil })
	}
	if n := capped.len(); n != 2 {
		t.Fatalf("capped cache holds %d entries, want 2", n)
	}
	if v, hit, _ := capped.get(3, func() (int, error) { return -3, nil }); hit || v != -3 {
		t.Fatalf("key past the limit was cached: %d hit=%v", v, hit)
	}
	var sum int
	capped.each(func(v int) { sum += v })
	if sum != 0+1 {
		t.Fatalf("each visited values summing to %d, want 1", sum)
	}
}
