// Package parallel is the repository's shared concurrency layer: a bounded
// worker pool with deterministic result ordering and a deterministic
// ordered-merge fan-in.
//
// Every concurrent kernel in the repository (sharded dataset generation,
// the n-gram/TF-IDF/perplexity analyses, the experiment harnesses) is built
// on these primitives, and all of them share one contract: the observable
// output is a pure function of the inputs — never of GOMAXPROCS, the worker
// count, or goroutine scheduling. Workers only decide *when* a shard runs;
// index order and the merge rules decide where its output lands.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines.
// All indices run even when some fail; the returned error is the non-nil
// error with the lowest index, so the result is independent of scheduling.
// With workers <= 1 (or n <= 1) the calls run inline in index order.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map applies fn to every item on at most workers goroutines and returns the
// results in input order (out[i] = fn(i, items[i])). Like ForEach, every
// item is processed and the lowest-index error wins.
func Map[T, R any](items []T, workers int, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := ForEach(len(items), workers, func(i int) error {
		r, err := fn(i, items[i])
		out[i] = r
		return err
	})
	return out, err
}

// Merge is the deterministic ordered-merge fan-in: it merges k shards, each
// already sorted under less, into one sorted slice. Ties — and elements
// neither strictly less than the other — are broken by shard index and then
// by position within the shard, so the merged order is total and identical
// for every worker count that produced the shards.
func Merge[T any](shards [][]T, less func(a, b T) bool) []T {
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	out := make([]T, 0, total)
	heads := make([]int, len(shards))
	for len(out) < total {
		best := -1
		for s, h := range heads {
			if h >= len(shards[s]) {
				continue
			}
			// Strict less only: on ties the earlier shard wins.
			if best < 0 || less(shards[s][h], shards[best][heads[best]]) {
				best = s
			}
		}
		out = append(out, shards[best][heads[best]])
		heads[best]++
	}
	return out
}
