package jit

import "vida/internal/vec"

// pairGather is the output plugin of the binary operators — the hash
// join's probe and the product. It queues matched pairs (a physical row
// of the current left batch, plus a retained right batch and row) and
// gathers them into one reused output batch over the joined frame: left
// slots first, then right slots, up to size rows per batch. Payloads
// are copied typed — int64, float64 and strings (dictionary codes read
// as strings, since right batches carry different dictionaries) with
// their null masks — so the operators above a join stay on their typed
// paths. Only a column whose sources disagree on representation (a
// demoted build batch among typed ones) is boxed, for that output batch
// alone. A residual predicate runs as a batch filter over each gathered
// batch before it is emitted.
type pairGather struct {
	lw     int
	right  []vec.Batch // retained right-side batches the pairs address
	filter batchFilter // residual over the joined frame; nil = none
	sink   batchSink
	size   int

	lrow   []int32 // per queued pair: physical row in the left batch
	rb, rr []int32 // per queued pair: right batch and physical row
	zeros  []int32 // batch index 0 per pair: the left side is one batch
	left   [1]vec.Batch
	bufs   []vec.Col // per output column: payload storage reused across batches
	out    vec.Batch

	emitted int64 // rows emitted (residual survivors)
}

func newPairGather(lw, rw, size int, right []vec.Batch, filter batchFilter, sink batchSink) *pairGather {
	hint := min(size, 128) // the queue grows to size only when matches fill it
	return &pairGather{
		lw: lw, right: right, filter: filter, sink: sink, size: size,
		lrow: make([]int32, 0, hint), rb: make([]int32, 0, hint), rr: make([]int32, 0, hint),
		bufs: make([]vec.Col, lw+rw),
		out:  vec.Batch{Cols: make([]vec.Col, lw+rw)},
	}
}

// add queues the pair (left row li of b, right row rr of batch rb),
// emitting a full output batch.
func (g *pairGather) add(b *vec.Batch, li int, rb, rr int32) error {
	g.lrow = append(g.lrow, int32(li))
	g.rb = append(g.rb, rb)
	g.rr = append(g.rr, rr)
	if len(g.lrow) >= g.size {
		return g.flush(b)
	}
	return nil
}

// flush gathers the queued pairs of left batch b, filters them through
// the residual and emits the survivors. It must run before b's producer
// moves on: the pairs address b's rows.
func (g *pairGather) flush(b *vec.Batch) error {
	n := len(g.lrow)
	if n == 0 {
		return nil
	}
	if len(g.zeros) < n {
		g.zeros = make([]int32, cap(g.lrow))
	}
	g.left[0] = *b
	for s := range g.out.Cols {
		if s < g.lw {
			gatherCol(&g.out.Cols[s], &g.bufs[s], g.left[:], g.zeros[:n], g.lrow, s)
		} else {
			gatherCol(&g.out.Cols[s], &g.bufs[s], g.right, g.rb, g.rr, s-g.lw)
		}
	}
	g.left[0] = vec.Batch{}
	g.lrow, g.rb, g.rr = g.lrow[:0], g.rb[:0], g.rr[:0]
	g.out.N, g.out.Sel = n, nil
	if g.filter != nil {
		if err := g.filter(&g.out); err != nil {
			return err
		}
		if g.out.Len() == 0 {
			return nil
		}
	}
	g.emitted += int64(g.out.Len())
	return g.sink(&g.out)
}

// gatherCol fills dst with column s of rows[m] of batch bats[bi[m]] for
// every queued pair m, in a payload held by buf. The output takes the
// sources' common representation (StrDict counts as Str); sources that
// disagree make it Boxed.
func gatherCol(dst, buf *vec.Col, bats []vec.Batch, bi, rows []int32, s int) {
	n := len(rows)
	tag, nulls := vec.Boxed, false
	last := int32(-1)
	for m := 0; m < n; m++ {
		if bi[m] == last {
			continue
		}
		last = bi[m]
		c := &bats[last].Cols[s]
		t := c.Tag
		if t == vec.StrDict {
			t = vec.Str
		}
		if m == 0 {
			tag = t
		} else if t != tag {
			tag = vec.Boxed
			break
		}
		nulls = nulls || c.Nulls != nil
	}
	*dst = vec.Col{Tag: tag}
	if nulls && tag != vec.Boxed {
		buf.Nulls = resized(buf.Nulls, n)
		for m := 0; m < n; m++ {
			c := &bats[bi[m]].Cols[s]
			buf.Nulls[m] = c.Nulls != nil && c.Nulls[rows[m]]
		}
		dst.Nulls = buf.Nulls
	}
	switch tag {
	case vec.Int64:
		buf.Ints = resized(buf.Ints, n)
		for m := 0; m < n; m++ {
			buf.Ints[m] = bats[bi[m]].Cols[s].Ints[rows[m]]
		}
		dst.Ints = buf.Ints
	case vec.Float64:
		buf.Floats = resized(buf.Floats, n)
		for m := 0; m < n; m++ {
			buf.Floats[m] = bats[bi[m]].Cols[s].Floats[rows[m]]
		}
		dst.Floats = buf.Floats
	case vec.Str:
		buf.Strs = resized(buf.Strs, n)
		for m := 0; m < n; m++ {
			if dst.Nulls != nil && dst.Nulls[m] {
				buf.Strs[m] = ""
				continue
			}
			buf.Strs[m] = bats[bi[m]].Cols[s].StrAt(int(rows[m]))
		}
		dst.Strs = buf.Strs
	default:
		buf.Boxed = resized(buf.Boxed, n)
		for m := 0; m < n; m++ {
			buf.Boxed[m] = bats[bi[m]].Cols[s].Value(int(rows[m]))
		}
		dst.Boxed = buf.Boxed
	}
}

// retainRows materializes a batch stream as retained typed batches plus
// the address (batch, physical row) of every live row in stream order:
// the product's right side, restarted once per left row.
func retainRows(run func(sink batchSink) error) (bats []vec.Batch, rb, rr []int32, err error) {
	err = run(func(b *vec.Batch) error {
		n := b.Len()
		if n == 0 {
			return nil
		}
		stored, compacted := retainForBuild(b)
		bi := int32(len(bats))
		bats = append(bats, stored)
		for k := 0; k < n; k++ {
			ri := b.Index(k)
			if compacted {
				ri = k
			}
			rb = append(rb, bi)
			rr = append(rr, int32(ri))
		}
		return nil
	})
	return bats, rb, rr, err
}
