// Package parallel provides the bounded-concurrency helper behind the pcmd
// service worker pool, the public ForEach and pcmbench's per-application
// traced Fig 10 loop. It exists so the fan-out/semaphore/first-error
// pattern lives in exactly one place.
package parallel

import (
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n), at most limit concurrently
// (limit <= 0 selects runtime.NumCPU()). It blocks until every invocation
// has returned and reports the error of the lowest index that failed, so
// results are deterministic regardless of goroutine scheduling. Invocations
// are independent: a failure does not cancel the others.
func ForEach(n, limit int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if limit <= 0 {
		limit = runtime.NumCPU()
	}
	if limit > n {
		limit = n
	}
	sem := make(chan struct{}, limit)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
