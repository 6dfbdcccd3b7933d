package jit

import (
	"vida/internal/trace"
	"vida/internal/vec"
)

// folder is the consumer end of one fold: per-run scratch (filter
// selection buffers, kernel outputs, hash vectors) that folds pipeline
// batches into the partial it was last started on. Every fold kind —
// reduce, top-k, stream, group-by, join build — is a folder, which is
// what lets runFold drive them all.
type folder[P any] interface {
	// start arms the folder with a fresh, empty partial and returns it.
	start() P
	// consume folds one pipeline batch into the current partial.
	consume(b *vec.Batch) error
	// finish settles what the folder still holds once its rows are
	// exhausted: typed partial aggregates into the collector, buffered
	// head values into the stream sink.
	finish() error
}

// runFold is the one fold driver: it feeds input through folders made
// by newFolder, serially or morsel-parallel, and returns the serial
// run's partial or — in a parallel run — the root the partials merged
// into. parallel reports which. It alone decides:
//
//   - Serial or parallel. A fold goes parallel when opts.Workers > 1,
//     input.openRange succeeds and the range holds at least
//     opts.ParallelThreshold rows (morsel-driven parallelism, Leis et
//     al., adopted here for raw scans).
//   - Morsel size: a few morsels per worker so interleaving evens out
//     skew, never below one batch per morsel.
//   - Where openRange runs: on the query goroutine, before any morsel is
//     dispatched, so a join below the fold builds its index eagerly and
//     never nests Pool.Run inside a pool worker.
//   - One Pool.Run per fold. The morsels of every in-flight query
//     interleave on the shared scheduler's fixed workers, and each
//     morsel borrows a folder (its scratch) from a per-fold free list.
//   - The merge order. merge folds the partials into a fresh root in
//     morsel order: associativity of the monoid's ⊕ makes that exactly
//     the serial fold, even for the non-commutative list monoid. A fold
//     without merge (a stream) emits from its workers in completion
//     order; only commutative stream roots may run that way, so a list
//     stream passes opts.Workers = 1.
//
// sp receives the parallel, morsels and workers attributes and parents
// the merge span.
func runFold[P any, F folder[P]](sp *trace.Span, input *compiledPlan, opts Options, newFolder func() F, merge func(root P, parts []P) error) (root P, parallel bool, err error) {
	var scan func(lo, hi int, sink batchSink) error
	n, ok := 0, false
	if opts.Workers > 1 && input.openRange != nil {
		scan, n, ok = input.openRange()
	}
	if !ok || n < opts.ParallelThreshold {
		sp.SetAttr("parallel", false)
		fl := newFolder()
		root = fl.start()
		if err := input.run(fl.consume); err != nil {
			return root, false, err
		}
		return root, false, fl.finish()
	}
	workers := opts.Workers
	morselRows := max(opts.BatchSize, ceilDiv(n, workers*4))
	morsels := ceilDiv(n, morselRows)
	if sp != nil { // guard: avoid arg boxing when disarmed
		sp.SetAttr("parallel", true)
		sp.SetAttr("morsels", morsels)
		sp.SetAttr("workers", workers)
	}
	// Folders pass between morsels through a free list holding one per
	// task the pool can run at once, so a morsel never waits for one.
	// They are all made here, on the query goroutine, so newFolder never
	// escapes: a serial fold's folder constructor costs no allocation.
	free := make(chan F, min(opts.Pool.Workers(), morsels))
	for range cap(free) {
		free <- newFolder()
	}
	parts := make([]P, morsels)
	err = opts.Pool.Run(opts.Ctx, morsels, func(i int) error {
		if err := opts.Ctx.Err(); err != nil {
			return err
		}
		fl := <-free
		defer func() { free <- fl }()
		part := fl.start()
		lo := i * morselRows
		if err := scan(lo, min(lo+morselRows, n), fl.consume); err != nil {
			return err
		}
		if err := fl.finish(); err != nil {
			return err
		}
		parts[i] = part
		return nil
	})
	if err != nil || merge == nil {
		return root, true, err
	}
	msp := sp.Child("merge")
	defer msp.End()
	root = (<-free).start()
	return root, true, merge(root, parts)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
