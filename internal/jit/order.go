package jit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vida/internal/algebra"
	"vida/internal/monoid"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file implements ORDER BY / LIMIT / OFFSET pushdown: the root
// reduce of an ordered plan becomes a keyed top-k fold (bounded to
// offset+limit entries when a limit is present) executed serially or
// morsel-parallel with per-worker partial heaps merged at the root, and
// a bare LIMIT on a collection plan becomes a row quota that cancels the
// remaining producers through the scheduler the moment enough rows have
// been emitted — a cold 300k-row scan with LIMIT 10 stops mid-file.

// errLimitReached is the internal control-flow sentinel a quota sink
// returns to stop its pipeline. It never escapes to callers: the
// execution roots translate it (and the cancellations it triggers in
// sibling morsel workers) into successful early completion.
var errLimitReached = errors.New("jit: row limit reached")

// orderedConsumer evaluates sort keys and the head per live row and
// folds them into a keyed top-k accumulator: the top-k fold's folder.
// start swaps in a fresh accumulator, bounded to keep entries, between
// morsels.
type orderedConsumer struct {
	acc         *monoid.TopKAcc
	desc        []bool
	keep        int
	filter      batchFilter // may be nil
	keyIdxs     []int       // per key: >= 0 slot fast path, -1 via kernel/expr
	keyKernels  []vecExpr   // per key: non-nil vectorized kernel
	keyCols     []*vec.Col  // per-batch kernel outputs (scratch)
	keyEs       []compiledExpr
	headIdx     int // >= 0: head is this slot
	head        compiledExpr
	row         []values.Value
	keys        []values.Value // reusable key scratch (fresh after retention)
	needRowKeys bool
	needRowHead bool
}

func (oc *orderedConsumer) start() *monoid.TopKAcc {
	oc.acc = monoid.NewTopKAcc(oc.desc, oc.keep)
	return oc.acc
}

func (oc *orderedConsumer) finish() error { return nil }

// mergeTopK merges partial heaps at the root. Keeping every partial
// bounded to keep entries makes the whole parallel fold O(workers ×
// keep) resident; the merge is sound for any collection monoid, since
// the final sort's total order is independent of input order.
func mergeTopK(root *monoid.TopKAcc, parts []*monoid.TopKAcc) error {
	for _, part := range parts {
		root.MergeFrom(part)
	}
	return nil
}

func (oc *orderedConsumer) consume(b *vec.Batch) error {
	if oc.filter != nil {
		if err := oc.filter(b); err != nil {
			return err
		}
	}
	n := b.Len()
	if n == 0 {
		return nil
	}
	// Kernel keys evaluate once per batch; rows then box only the key
	// values they feed into the competitiveness check.
	for j, kk := range oc.keyKernels {
		if kk == nil {
			continue
		}
		kc, err := kk(b)
		if err != nil {
			return err
		}
		oc.keyCols[j] = kc
	}
	// Typed pre-check: once the accumulator is full, a first key read
	// from an int64/float64 column compares against the worst entry's
	// first key unboxed. A row that sorts after it cannot place and is
	// skipped; one that sorts before it places. Only ties and undecided
	// rows (nulls, a non-numeric bar) box their keys for Competitive.
	// Keys evaluated row-wise disable it: skipping a row must not skip
	// an error its keys would raise.
	first := oc.keyCols[0]
	if oc.keyIdxs[0] >= 0 {
		first = &b.Cols[oc.keyIdxs[0]]
	}
	if first != nil && (oc.needRowKeys || !numericTag(first.Tag)) {
		first = nil
	}
	var bar keyBar
	stale := true
	for k := 0; k < n; k++ {
		i := b.Index(k)
		places := false
		if first != nil {
			if stale {
				bar, stale = oc.bar(), false
			}
			if bar.full {
				c, ok := bar.rank(first, i)
				if ok && c > 0 {
					continue
				}
				places = ok && c < 0
			}
		}
		if oc.needRowKeys {
			fillRow(b, i, oc.row)
		}
		if oc.keys == nil {
			oc.keys = make([]values.Value, len(oc.keyIdxs))
		}
		keys := oc.keys
		for j, idx := range oc.keyIdxs {
			if idx >= 0 {
				keys[j] = b.Cols[idx].Value(i)
				continue
			}
			if oc.keyCols[j] != nil {
				keys[j] = oc.keyCols[j].Value(i)
				continue
			}
			kv, err := oc.keyEs[j](oc.row)
			if err != nil {
				return err
			}
			keys[j] = kv
		}
		// Keys-only pre-check: rows that cannot place skip row
		// materialization and head evaluation (the record build is the
		// per-row cost of wide selects) and reuse the key buffer — the
		// steady state of a large scan under a small limit folds
		// allocation-free.
		if !places && !oc.acc.Competitive(keys) {
			continue
		}
		var h values.Value
		if oc.headIdx >= 0 {
			h = b.Cols[oc.headIdx].Value(i)
		} else {
			if oc.needRowHead && !oc.needRowKeys {
				fillRow(b, i, oc.row)
			}
			var err error
			h, err = oc.head(oc.row)
			if err != nil {
				return err
			}
		}
		if oc.acc.Offer(keys, h) {
			oc.keys = nil
			stale = true
		}
	}
	return nil
}

// keyBar is the worst retained entry's first sort key, unpacked for
// the typed pre-check.
type keyBar struct {
	full  bool // the accumulator is full and its bar is numeric
	desc  bool
	isInt bool
	i     int64
	f     float64
}

// bar unpacks the accumulator's current bar.
func (oc *orderedConsumer) bar() keyBar {
	worst, full := oc.acc.Worst()
	if !full {
		return keyBar{}
	}
	kb := keyBar{full: true, desc: oc.desc[0]}
	switch w := &worst[0]; w.Kind() {
	case values.KindInt:
		kb.isInt, kb.i = true, w.Int()
	case values.KindFloat:
		kb.f = w.Float()
	default:
		return keyBar{}
	}
	return kb
}

// rank orders row i of the numeric column col against the bar on the
// first key, as values.Compare would with the key's direction applied:
// c > 0 means the row sorts after the bar. ok is false for a null row,
// which only the boxed comparison decides.
func (kb *keyBar) rank(col *vec.Col, i int) (c int, ok bool) {
	if col.Nulls != nil && col.Nulls[i] {
		return 0, false
	}
	switch {
	case col.Tag == vec.Int64 && kb.isInt:
		v := col.Ints[i]
		if v < kb.i {
			c = -1
		} else if v > kb.i {
			c = 1
		}
	case col.Tag == vec.Int64:
		c = values.CompareFloats(float64(col.Ints[i]), kb.f)
	case kb.isInt:
		c = values.CompareFloats(col.Floats[i], float64(kb.i))
	default:
		c = values.CompareFloats(col.Floats[i], kb.f)
	}
	if kb.desc {
		c = -c
	}
	return c, true
}

// compileOrderedConsumer stages the keyed top-k root: optional inline
// predicate, per-key slot fast paths, head evaluation. The factory takes
// the run's retention bound (see resolveOrder).
func (c *compiler) compileOrderedConsumer(p *algebra.Reduce, input *compiledPlan) (func(keep int) *orderedConsumer, error) {
	mkFilter, err := c.compileFilter(p.Pred, input.frame)
	if err != nil {
		return nil, err
	}
	keys := p.Order.Keys
	desc := make([]bool, len(keys))
	keyIdxs := make([]int, len(keys))
	mkKeyKernels := make([]func() vecExpr, len(keys))
	keyEs := make([]compiledExpr, len(keys))
	needRowKeys := false
	for i, k := range keys {
		desc[i] = k.Desc
		keyIdxs[i], mkKeyKernels[i], keyEs[i], err = c.compileValue(k.E, input.frame)
		if err != nil {
			return nil, err
		}
		needRowKeys = needRowKeys || keyEs[i] != nil
	}
	headIdx := slotOf(p.Head, input.frame)
	var head compiledExpr
	needRowHead := false
	if headIdx < 0 {
		head, err = c.compileExpr(p.Head, input.frame)
		if err != nil {
			return nil, err
		}
		needRowHead = true
	}
	width := input.frame.width()
	return func(keep int) *orderedConsumer {
		oc := &orderedConsumer{
			desc: desc, keep: keep, keyIdxs: keyIdxs, keyEs: keyEs, headIdx: headIdx, head: head,
			needRowKeys: needRowKeys, needRowHead: needRowHead,
			keyKernels: make([]vecExpr, len(keys)),
			keyCols:    make([]*vec.Col, len(keys)),
		}
		for i, mk := range mkKeyKernels {
			if mk != nil {
				oc.keyKernels[i] = mk()
			}
		}
		if needRowKeys || needRowHead {
			oc.row = make([]values.Value, width)
		}
		if mkFilter != nil {
			oc.filter = mkFilter()
		}
		return oc
	}, nil
}

// rowQuota is the shared countdown of a bare-LIMIT stream: concurrent
// sinks reserve rows from it, and whoever takes the last row cancels the
// producers. offset rows are swallowed before any reach the consumer
// (bag semantics: which rows survive is unspecified under parallelism).
type rowQuota struct {
	skip   atomic.Int64 // rows still to drop (offset)
	left   atomic.Int64 // rows still to emit; negative once exhausted
	bound  bool         // false: unlimited (offset-only quota)
	failed atomic.Bool  // a sink error surfaced: never report completion
	cancel context.CancelFunc
}

func newRowQuota(limit, offset int, cancel context.CancelFunc) *rowQuota {
	q := &rowQuota{bound: limit >= 0, cancel: cancel}
	q.skip.Store(int64(offset))
	if limit >= 0 {
		q.left.Store(int64(limit))
	}
	return q
}

// admit reserves up to n rows: it returns how many of the next n rows to
// drop from the front (offset) and how many to emit after that. done
// reports that the quota is now exhausted and producers should stop.
func (q *rowQuota) admit(n int) (drop, emit int, done bool) {
	// Reserve from skip with a CAS loop: a racy double-decrement would
	// over-drop and return fewer than limit rows when the source has no
	// surplus beyond offset+limit.
	for {
		s := q.skip.Load()
		if s <= 0 {
			drop = 0
			break
		}
		taken := int64(n)
		if taken > s {
			taken = s
		}
		if q.skip.CompareAndSwap(s, s-taken) {
			drop = int(taken)
			break
		}
	}
	n -= drop
	if !q.bound {
		return drop, n, false
	}
	if n == 0 {
		return drop, 0, q.left.Load() <= 0
	}
	got := q.left.Add(int64(-n))
	switch {
	case got > 0:
		return drop, n, false
	case got+int64(n) > 0:
		// This reservation crossed zero: emit the remainder, then stop.
		return drop, int(got) + n, true
	default:
		return drop, 0, true
	}
}

// exhausted reports whether the quota has been fully served.
func (q *rowQuota) exhausted() bool {
	return q.bound && q.left.Load() <= 0
}

// wrap decorates a stream sink with the quota: chunks are trimmed to the
// remaining budget and the pipeline is stopped (errLimitReached plus
// context cancellation, which halts morsel dispatch in the scheduler)
// once the budget is spent.
func (q *rowQuota) wrap(next StreamSink) StreamSink {
	return func(chunk []values.Value) error {
		drop, emit, done := q.admit(len(chunk))
		if emit > 0 {
			if err := next(chunk[drop : drop+emit]); err != nil {
				// The budget was reserved before delivery: mark the
				// quota failed so an already-exhausted budget cannot
				// masquerade as successful completion downstream.
				q.failed.Store(true)
				return err
			}
		}
		if done {
			if q.cancel != nil {
				q.cancel()
			}
			return errLimitReached
		}
		return nil
	}
}

// swallowLimit maps quota-triggered terminations to success: the sentinel
// directly, or a cancellation that the quota itself caused. outer is the
// caller's context — if IT was cancelled, the cancellation is real.
func swallowLimit(err error, q *rowQuota, outer context.Context) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, errLimitReached) {
		return nil
	}
	if q != nil && q.exhausted() && !q.failed.Load() && outer.Err() == nil {
		// A sibling worker observed the quota's cancel before the sentinel
		// could surface; the stream is complete.
		return nil
	}
	return err
}

// resolveOrder evaluates an order spec against the options: concrete
// limit/offset plus the derived retention bound.
func resolveOrder(p *algebra.Reduce) (limit, offset, keep int, dedup bool, err error) {
	limit, offset, err = algebra.ResolveExtents(p.Order)
	if err != nil {
		return 0, 0, 0, false, err
	}
	dedup = p.M.Name() == "set"
	keep = -1
	if limit >= 0 && !dedup {
		keep = offset + limit
	}
	return limit, offset, keep, dedup, nil
}

// compileTopK stages the execution root of an ordered plan (keys
// present): the keyed top-k fold, finalized to the sorted, deduplicated,
// offset/limit-applied elements. Both execution modes share it: collect
// mode wraps the elements in a list, stream mode emits them in chunks.
func (c *compiler) compileTopK(p *algebra.Reduce, input *compiledPlan) (func() ([]values.Value, error), error) {
	mkCons, err := c.compileOrderedConsumer(p, input)
	if err != nil {
		return nil, err
	}
	opts := c.opts
	return func() ([]values.Value, error) {
		sp := opts.Trace.Child("fold")
		sp.SetAttr("kind", "topk")
		defer sp.End()
		limit, offset, keep, dedup, err := resolveOrder(p)
		if err != nil {
			return nil, err
		}
		acc, _, err := runFold(sp, input, opts, func() *orderedConsumer { return mkCons(keep) }, mergeTopK)
		if err != nil {
			return nil, err
		}
		return acc.Finalize(offset, limit, dedup), nil
	}, nil
}

// compileBareBound stages the execution root of a collection plan with a
// bare LIMIT/OFFSET (no sort keys) in collect mode: the streaming quota
// path runs underneath and the chunks are gathered into the declared
// collection, so the early-stop machinery is shared with cursors.
func (c *compiler) compileBareBound(p *algebra.Reduce, input *compiledPlan) (func() (values.Value, error), error) {
	if !monoid.IsCollection(p.M) || p.M.Name() == "array" {
		return nil, fmt.Errorf("jit: limit/offset on %s-monoid results", p.M.Name())
	}
	bounded, err := c.compileStream(p, input)
	if err != nil {
		return nil, err
	}
	name := p.M.Name()
	return func() (values.Value, error) {
		var mu sync.Mutex
		var elems []values.Value
		collect := func(chunk []values.Value) error {
			mu.Lock()
			elems = append(elems, chunk...)
			mu.Unlock()
			return nil
		}
		if err := bounded(collect); err != nil {
			return values.Null, err
		}
		switch name {
		case "list":
			return values.NewList(elems...), nil
		case "set":
			return values.NewSet(elems...), nil
		default:
			return values.NewBag(elems...), nil
		}
	}, nil
}
