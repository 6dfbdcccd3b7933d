package jit

import (
	"context"
	"fmt"
	"sync"

	"vida/internal/algebra"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file implements the pull-sink execution mode: instead of folding
// the root reduce into a monoid collector, collection-rooted plans emit
// their head values in chunks to a caller-supplied sink, so a consumer
// can process (or abandon) a large result batch-at-a-time with bounded
// memory. See doc.go for how this mode relates to the collect mode.

// StreamSink receives one chunk of head values. Ownership of the slice
// transfers to the sink: the producer allocates a fresh chunk per
// emission, so sinks may retain or hand it to another goroutine without
// copying. Under morsel-parallel streaming the sink is invoked
// concurrently from pool workers and must be safe for concurrent calls
// (a channel send qualifies).
type StreamSink func(chunk []values.Value) error

// CanStream reports whether the plan's root monoid supports pull-based
// streaming: the collection monoids whose fold is just element
// accumulation. Scalar aggregates (count/sum/...), avg/median (which
// finalize auxiliary state) and array construction stay on the collect
// path.
func CanStream(p *algebra.Reduce) bool {
	switch p.M.Name() {
	case "list", "bag", "set":
		return true
	}
	return false
}

// RunStream executes a collection-rooted plan in pull-sink mode,
// emitting head-value chunks to emit instead of collecting them. Chunk
// order follows the serial pipeline for the list monoid; for the
// commutative bag and set monoids large scans go morsel-parallel and
// chunks arrive in completion order (the result is a bag — element
// order is not part of its semantics). Set deduplication is the
// consumer's concern: the raw element stream is emitted.
func (e Executor) RunStream(ctx context.Context, p *algebra.Reduce, cat algebra.Catalog, emit StreamSink) error {
	opts := e.Opts
	opts.Ctx = ctx
	prog, err := CompileStream(p, cat, opts)
	if err != nil {
		return err
	}
	return prog(emit)
}

// CompileStream stages a collection-rooted plan into a pull-sink
// program. It shares CompileWith's prelude and every stage below the
// root: the same staged pipeline feeds a streamConsumer that evaluates
// the reduce head per live row and flushes fixed-size chunks, rather
// than a reduceConsumer folding into a collector.
func CompileStream(p *algebra.Reduce, cat algebra.Catalog, opts Options) (func(emit StreamSink) error, error) {
	if !CanStream(p) {
		return nil, fmt.Errorf("jit: cannot stream %s-monoid results", p.M.Name())
	}
	c := &compiler{}
	p, input, err := c.prepare(p, cat, opts)
	if err != nil {
		return nil, err
	}
	var prog func(emit StreamSink) error
	switch {
	case p.Order.Ordered():
		// Ordered plans are blocking at the root: the keyed top-k fold
		// runs to completion, then the sorted, deduplicated,
		// offset/limit-applied elements stream out in chunks — the
		// NDJSON path emits ordered output without buffering beyond the
		// heap.
		var topk func() ([]values.Value, error)
		topk, err = c.compileTopK(p, input)
		bs := c.opts.BatchSize
		prog = func(emit StreamSink) error {
			elems, err := topk()
			if err != nil {
				return err
			}
			return emitChunks(elems, bs, emit)
		}
	default:
		prog, err = c.compileStream(p, input)
	}
	if err != nil {
		return nil, err
	}
	c.reportKernels()
	return prog, nil
}

// compileStream stages the streaming root. For the commutative bag and
// set monoids the fold may go morsel-parallel, every worker emitting
// finished chunks straight to the shared sink in completion order:
// there is no merge stage, the sink (typically a bounded channel) is
// the merge point, and backpressure from a slow consumer blocks workers
// in emit, which in turn stalls morsel dispatch — bounded memory end to
// end. A list stream runs serially so element order matches the
// collect mode.
//
// A bare LIMIT/OFFSET (p.Order without sort keys) pushes a row quota
// into the stream: offset rows are dropped, at most limit rows reach
// emit, and the producers are cancelled as soon as the quota fills. Set
// plans dedup before the quota, so LIMIT counts distinct elements.
func (c *compiler) compileStream(p *algebra.Reduce, input *compiledPlan) (func(emit StreamSink) error, error) {
	mkCons, err := c.compileStreamConsumer(p, input)
	if err != nil {
		return nil, err
	}
	opts := c.opts
	if !p.M.Commutative() {
		opts.Workers = 1
	}
	dedup := p.M.Name() == "set"
	return func(emit StreamSink) error {
		sp := opts.Trace.Child("fold")
		defer sp.End()
		if p.Order == nil {
			sp.SetAttr("kind", "stream")
			_, _, err := runFold(sp, input, opts, func() *streamConsumer { return mkCons(emit) }, nil)
			return err
		}
		sp.SetAttr("kind", "limit")
		limit, offset, err := algebra.ResolveExtents(p.Order)
		if err != nil {
			return err
		}
		qopts := opts
		qctx, cancel := context.WithCancel(opts.Ctx)
		defer cancel()
		qopts.Ctx = qctx
		q := newRowQuota(limit, offset, cancel)
		sink := q.wrap(emit)
		if dedup {
			sink = DedupSink(sink, opts.MemReserve)
		}
		_, _, err = runFold(sp, input, qopts, func() *streamConsumer { return mkCons(sink) }, nil)
		return swallowLimit(err, q, opts.Ctx)
	}, nil
}

// DedupSink decorates a sink with set-monoid deduplication: each
// element is forwarded at most once across all producers, first
// occurrence wins (hash index with equality chains, mutex-guarded
// because morsel workers emit concurrently). Note the memory contract:
// streaming distinct requires remembering every distinct element seen,
// so a deduped stream is O(distinct result) resident — unlike list/bag
// streams, which are O(channel buffer). The cursor layer applies it to
// plain set streams; bounded set plans dedup inside the quota pipeline
// so LIMIT counts distinct elements. Because the dedup table is exactly
// that O(distinct) resident state, reserve (when non-nil, the query's
// memory-budget charge; see Options.MemReserve) is charged for every
// element the table remembers.
func DedupSink(next StreamSink, reserve func(delta int64) error) StreamSink {
	var mu sync.Mutex
	seen := map[uint64][]values.Value{}
	return func(chunk []values.Value) error {
		mu.Lock()
		fresh := make([]values.Value, 0, len(chunk))
		var freshBytes int64
		for _, v := range chunk {
			h := v.Hash()
			dup := false
			for _, o := range seen[h] {
				if values.Equal(v, o) {
					dup = true
					break
				}
			}
			if !dup {
				seen[h] = append(seen[h], v)
				fresh = append(fresh, v)
				if reserve != nil {
					freshBytes += approxValueBytes(v)
				}
			}
		}
		mu.Unlock()
		if reserve != nil && freshBytes > 0 {
			if err := reserve(freshBytes); err != nil {
				return err
			}
		}
		if len(fresh) == 0 {
			return nil
		}
		return next(fresh)
	}
}

// emitChunks streams a materialized element slice to a sink in
// size-bounded chunks (each chunk freshly allocated: ownership transfers
// to the sink).
func emitChunks(elems []values.Value, size int, emit StreamSink) error {
	for len(elems) > 0 {
		n := size
		if n > len(elems) {
			n = len(elems)
		}
		chunk := make([]values.Value, n)
		copy(chunk, elems[:n])
		elems = elems[n:]
		if err := emit(chunk); err != nil {
			return err
		}
	}
	return nil
}

// streamConsumer turns pipeline batches into chunks of evaluated head
// values: the stream fold's folder. It has no partial to merge — each
// chunk goes to the sink as it fills — so one consumer serves any
// number of morsels in turn.
type streamConsumer struct {
	filter     batchFilter // may be nil
	headIdx    int         // >= 0: head is this slot (no per-row evaluation)
	headKernel vecExpr     // non-nil: head computed per batch by a kernel
	head       compiledExpr
	row        []values.Value
	chunk      []values.Value
	size       int
	emit       StreamSink
}

func (sc *streamConsumer) consume(b *vec.Batch) error {
	if sc.filter != nil {
		if err := sc.filter(b); err != nil {
			return err
		}
	}
	n := b.Len()
	var headCol *vec.Col
	if sc.headKernel != nil && n > 0 {
		var err error
		headCol, err = sc.headKernel(b)
		if err != nil {
			return err
		}
	}
	for k := 0; k < n; k++ {
		i := b.Index(k)
		var v values.Value
		switch {
		case sc.headIdx >= 0:
			v = b.Cols[sc.headIdx].Value(i)
		case headCol != nil:
			v = headCol.Value(i)
		default:
			fillRow(b, i, sc.row)
			var err error
			v, err = sc.head(sc.row)
			if err != nil {
				return err
			}
		}
		sc.chunk = append(sc.chunk, v)
		if len(sc.chunk) >= sc.size {
			if err := sc.flush(); err != nil {
				return err
			}
		}
	}
	// Flush at every input-batch boundary: a slow or sparse producer must
	// not sit on buffered rows until the chunk fills — first-row latency
	// tracks the scan, not the result density.
	return sc.flush()
}

// start drops anything a failed morsel left buffered.
func (sc *streamConsumer) start() struct{} {
	sc.chunk = sc.chunk[:0]
	return struct{}{}
}

func (sc *streamConsumer) finish() error { return sc.flush() }

// flush emits the buffered chunk (ownership transfers) and starts a new
// one. Safe to call with an empty buffer.
func (sc *streamConsumer) flush() error {
	if len(sc.chunk) == 0 {
		return nil
	}
	chunk := sc.chunk
	sc.chunk = make([]values.Value, 0, sc.size)
	return sc.emit(chunk)
}

// compileStreamConsumer stages the root of a streaming plan: optional
// inline predicate, head evaluation (slot fast path when the head is a
// pure slot reference) and chunk assembly.
func (c *compiler) compileStreamConsumer(p *algebra.Reduce, input *compiledPlan) (func(StreamSink) *streamConsumer, error) {
	mkFilter, err := c.compileFilter(p.Pred, input.frame)
	if err != nil {
		return nil, err
	}
	headIdx, mkHeadKernel, head, err := c.compileRowValue(p.Head, input.frame)
	if err != nil {
		return nil, err
	}
	width := input.frame.width()
	size := c.opts.BatchSize
	return func(emit StreamSink) *streamConsumer {
		sc := &streamConsumer{headIdx: headIdx, head: head, size: size, emit: emit}
		sc.chunk = make([]values.Value, 0, size)
		if mkHeadKernel != nil {
			sc.headKernel = mkHeadKernel()
		} else if headIdx < 0 {
			sc.row = make([]values.Value, width)
		}
		if mkFilter != nil {
			sc.filter = mkFilter()
		}
		return sc
	}, nil
}
