package jit

import (
	"vida/internal/faultinject"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file is the partitioned parallel hash join. The serial join of
// the earlier engine kept one monolithic chain table built by a single
// scan; here the build side is scanned morsel-parallel into per-morsel
// radix-partitioned entry lists, the partitions are sealed into a
// shared immutable index, and probe morsels run in parallel against it.
// Determinism is structural, not synchronized:
//
//   - Each build entry's partition is a pure function of its key hash
//     (the top log2(P) bits), so all candidates for one probe key live
//     in exactly one partition regardless of which worker built it.
//   - Sealing concatenates each partition's per-morsel entry lists in
//     morsel order, which is build-scan order — the same order the
//     serial build appends entries in.
//   - Per-partition bucket chains insert in reverse so a chain lists
//     its entries in build order, making every probe row emit its
//     matches in exactly the serial engine's order.
//
// Probe morsels then merge at the root in morsel order (the grouped
// fold's discipline), so results are byte-identical to the serial plan
// across any worker and partition count — including for the
// non-commutative list monoid.

// DefaultJoinPartitions is the default radix partition count for the
// hash-join build. Partitioning exists for parallel-build locality (each
// morsel appends to its own partition lists; sealing never rehashes), so
// a modest power of two suffices.
const DefaultJoinPartitions = 16

// maxJoinPartitions bounds the partition count: past this the per-
// partition fixed overhead (head arrays) dominates small builds.
const maxJoinPartitions = 1024

// joinState is the compile-time staging of one hash join: everything
// both the serial run path and the morsel-parallel openRange path share.
type joinState struct {
	l, r         *compiledPlan
	lSlot, rSlot int // slot-reference key fast path; -1 = expression keys
	lKeys, rKeys []func() valGetter
	residual     func() batchFilter // over the joined frame; nil = none
	lw, rw       int
	opts         Options
	parts        int  // partition count, power of two
	shift        uint // 64 - log2(parts); partition = hash >> shift
}

// joinPartial is one build morsel's output: the batches it retained and,
// per radix partition, the entries it contributed. Entries reference
// (batch, row) within the morsel's own retained list; sealing rebases
// batch indices into the global list.
type joinPartial struct {
	retained []vec.Batch
	parts    []joinPartChunk
}

type joinPartChunk struct {
	hashes []uint64
	batch  []int32
	row    []int32
	keys   []values.Value // boxed keys, expression-key case only
}

// joinIndex is the sealed immutable build index shared by all probe
// morsels. No field is mutated after seal.
type joinIndex struct {
	retained []vec.Batch
	parts    []joinIndexPart
	entries  int64
	bytes    int64 // retained batches + index arrays + boxed keys
}

// joinIndexPart is one sealed radix partition: its entries in global
// build order plus a power-of-two bucket chain table over them.
type joinIndexPart struct {
	joinPartChunk
	head []int32 // 1-based entry, 0 = empty
	next []int32
	mask uint64
}

// joinKeyAt builds row i's key tuple from the key columns; ok is false
// when any component is null (null keys never join).
func joinKeyAt(cols []*vec.Col, i int) (values.Value, bool) {
	if len(cols) == 1 {
		v := cols[0].Value(i)
		return v, !v.IsNull()
	}
	parts := make([]values.Value, len(cols))
	for j, c := range cols {
		v := c.Value(i)
		if v.IsNull() {
			return values.Null, false
		}
		parts[j] = v
	}
	return values.NewList(parts...), true
}

func (js *joinState) newPartial() *joinPartial {
	return &joinPartial{parts: make([]joinPartChunk, js.parts)}
}

// joinBuilder accumulates partitioned build entries into its current
// partial: the join build's folder. Its scratch (key getters and
// columns, per-batch key hashes) carries over between the morsels it
// serves.
type joinBuilder struct {
	js      *joinState
	span    *trace.Span // receives the entry count
	part    *joinPartial
	keys    keyCols // expression keys (rSlot < 0)
	hs      []uint64
	hsValid []bool
}

func (js *joinState) newBuilder(bsp *trace.Span) *joinBuilder {
	jb := &joinBuilder{js: js, span: bsp}
	if js.rSlot < 0 {
		jb.keys = newKeyCols(js.rKeys)
	}
	return jb
}

// keyCols evaluates a join side's expression keys as columns, one
// getter per key component, once per batch.
type keyCols struct {
	gets []valGetter
	cols []*vec.Col
}

func newKeyCols(mks []func() valGetter) keyCols {
	kc := keyCols{gets: make([]valGetter, len(mks)), cols: make([]*vec.Col, len(mks))}
	for i, mk := range mks {
		kc.gets[i] = mk()
	}
	return kc
}

// eval computes every key column over b's live rows.
func (kc *keyCols) eval(b *vec.Batch) error {
	for i, get := range kc.gets {
		col, err := get(b)
		if err != nil {
			return err
		}
		kc.cols[i] = col
	}
	return nil
}

func (jb *joinBuilder) start() *joinPartial {
	jb.part = jb.js.newPartial()
	return jb.part
}

func (jb *joinBuilder) finish() error { return nil }

func (jb *joinBuilder) consume(b *vec.Batch) error {
	js, part := jb.js, jb.part
	cnt := b.Len()
	if cnt == 0 {
		return nil
	}
	if err := faultinject.Hit(faultinject.JoinBuildStall); err != nil {
		return err
	}
	bi := int32(len(part.retained))
	stored, compacted := retainForBuild(b)
	if reserve := js.opts.MemReserve; reserve != nil {
		// The build side is the join's dominant allocator: charge every
		// retained batch against the query budget.
		if err := reserve(stored.MemoryBytes()); err != nil {
			return err
		}
	}
	part.retained = append(part.retained, stored)
	var appended int64
	if js.rSlot >= 0 {
		// Vectorized build: the key column hashes in one tag-dispatched
		// pass — typed payloads never box.
		jb.hs, jb.hsValid = hashLiveCol(&b.Cols[js.rSlot], b, jb.hs[:0], jb.hsValid[:0])
		for k := 0; k < cnt; k++ {
			if !jb.hsValid[k] {
				continue
			}
			// A compacted batch re-indexes: its physical row k is the
			// k-th live row of b.
			si := b.Index(k)
			if compacted {
				si = k
			}
			h := jb.hs[k]
			ch := &part.parts[h>>js.shift]
			ch.hashes = append(ch.hashes, h)
			ch.batch = append(ch.batch, bi)
			ch.row = append(ch.row, int32(si))
			appended++
		}
	} else {
		if err := jb.keys.eval(b); err != nil {
			return err
		}
		for k := 0; k < cnt; k++ {
			i := b.Index(k)
			si := i
			if compacted {
				si = k
			}
			kv, ok := joinKeyAt(jb.keys.cols, i)
			if !ok {
				continue
			}
			h := kv.Hash()
			ch := &part.parts[h>>js.shift]
			ch.hashes = append(ch.hashes, h)
			ch.batch = append(ch.batch, bi)
			ch.row = append(ch.row, int32(si))
			ch.keys = append(ch.keys, kv)
			appended++
		}
	}
	jb.span.AddRows(appended)
	return nil
}

// mergeJoinPartials concatenates the build morsels' partials into root
// in morsel order — which is build-scan order, the order the serial
// build appends entries in — rebasing batch indices into root's
// retained list.
func mergeJoinPartials(root *joinPartial, parts []*joinPartial) error {
	base := make([]int32, len(parts))
	for mi, m := range parts {
		base[mi] = int32(len(root.retained))
		root.retained = append(root.retained, m.retained...)
	}
	for pi := range root.parts {
		total := 0
		for _, m := range parts {
			total += len(m.parts[pi].hashes)
		}
		ch := &root.parts[pi]
		if total > 0 {
			ch.hashes = make([]uint64, 0, total)
			ch.batch = make([]int32, 0, total)
			ch.row = make([]int32, 0, total)
		}
		for mi, m := range parts {
			src := &m.parts[pi]
			ch.hashes = append(ch.hashes, src.hashes...)
			for _, bi := range src.batch {
				ch.batch = append(ch.batch, base[mi]+bi)
			}
			ch.row = append(ch.row, src.row...)
			ch.keys = append(ch.keys, src.keys...)
		}
	}
	return nil
}

// seal turns the build's partial into the shared immutable index by
// building each partition's bucket chains. The index arrays are charged
// against the query budget here (the retained batches were charged as
// they arrived).
func (js *joinState) seal(build *joinPartial) (*joinIndex, error) {
	idx := &joinIndex{retained: build.retained, parts: make([]joinIndexPart, js.parts)}
	var retainedBytes, indexBytes int64
	for i := range idx.retained {
		retainedBytes += idx.retained[i].MemoryBytes()
	}
	for pi := range idx.parts {
		part := &idx.parts[pi]
		part.joinPartChunk = build.parts[pi]
		for _, kv := range part.keys {
			indexBytes += approxValueBytes(kv)
		}
		// Power-of-two bucket heads plus per-entry chains, inserted in
		// reverse so each chain lists entries in build order (probe
		// results match the row-at-a-time engines exactly).
		n := len(part.hashes)
		tableSize := 1
		for tableSize < n*2 {
			tableSize *= 2
		}
		part.mask = uint64(tableSize - 1)
		part.head = make([]int32, tableSize)
		part.next = make([]int32, n)
		for e := n - 1; e >= 0; e-- {
			slot := part.hashes[e] & part.mask
			part.next[e] = part.head[slot]
			part.head[slot] = int32(e + 1)
		}
		idx.entries += int64(n)
		indexBytes += int64(n)*(8+4+4+4) + int64(tableSize)*4
	}
	if reserve := js.opts.MemReserve; reserve != nil && indexBytes > 0 {
		if err := reserve(indexBytes); err != nil {
			return nil, err
		}
	}
	idx.bytes = retainedBytes + indexBytes
	return idx, nil
}

// buildIndex drives the build side to a sealed index under a
// `fold kind=join` span: the build fold (morsel-parallel when the build
// side partitions, serial otherwise — same partitioned structures, one
// partial) and the seal. buildIndex always runs on the query goroutine:
// openRange callers invoke it eagerly before dispatching probe morsels,
// so the pool never nests Run inside its own workers.
func (js *joinState) buildIndex() (*joinIndex, *trace.Span, error) {
	opts := js.opts
	fold := opts.Trace.Child("fold")
	fold.SetAttr("kind", "join")
	fold.SetAttr("partitions", js.parts)
	bsp := fold.Child("join_build")
	build, parallel, err := runFold(bsp, js.r, opts, func() *joinBuilder { return js.newBuilder(bsp) }, mergeJoinPartials)
	fold.SetAttr("parallel_build", parallel)
	bsp.End()
	if err != nil {
		fold.End()
		return nil, nil, err
	}
	ssp := fold.Child("join_seal")
	idx, err := js.seal(build)
	ssp.End()
	if err != nil {
		fold.End()
		return nil, nil, err
	}
	fold.SetAttr("build_rows", idx.entries)
	fold.SetAttr("table_bytes", idx.bytes)
	fold.End()
	if js.opts.JoinStats != nil {
		js.opts.JoinStats(1, idx.entries, 0, idx.bytes)
	}
	return idx, fold, nil
}

// mkProber stages one probe pipeline over the sealed index: a batchSink
// probing each live row and gathering its matches, typed, into sink
// (pairGather; the residual filters each gathered batch). All scratch
// (gather batch, key columns, hash vectors) is per-prober, so one
// prober serves one serial run or one probe-morsel scan invocation.
// matched counts the rows this prober emitted (for the delta-style
// JoinStats hook); psp accumulates the same count atomically across
// concurrent probers.
func (js *joinState) mkProber(idx *joinIndex, psp *trace.Span, sink batchSink) (probe batchSink, matched *int64) {
	var residual batchFilter
	if js.residual != nil {
		residual = js.residual()
	}
	g := newPairGather(js.lw, js.rw, js.opts.BatchSize, idx.retained, residual, sink)
	var keys keyCols
	if js.lSlot < 0 {
		keys = newKeyCols(js.lKeys)
	}
	var hs []uint64
	var hsValid []bool
	matched = new(int64)
	lSlot, rSlot := js.lSlot, js.rSlot
	// entryMatches verifies key equality on a hash match. With slot keys
	// on both sides the comparison runs typed (colValEqual, no boxing);
	// a boxed side boxes only on hash matches, never per probed row.
	entryMatches := func(part *joinIndexPart, e int, b *vec.Batch, i int, kv *values.Value) bool {
		if rSlot >= 0 {
			rb := &idx.retained[part.batch[e]]
			ri := int(part.row[e])
			if lSlot >= 0 {
				return colValEqual(&b.Cols[lSlot], i, &rb.Cols[rSlot], ri)
			}
			return values.Equal(*kv, rb.Cols[rSlot].Value(ri))
		}
		if lSlot >= 0 {
			return values.Equal(b.Cols[lSlot].Value(i), part.keys[e])
		}
		return values.Equal(*kv, part.keys[e])
	}
	probe = func(b *vec.Batch) error {
		cnt := b.Len()
		if lSlot >= 0 {
			// Vectorized probe: hash the key column once per batch.
			hs, hsValid = hashLiveCol(&b.Cols[lSlot], b, hs[:0], hsValid[:0])
		} else if err := keys.eval(b); err != nil {
			return err
		}
		before := g.emitted
		for k := 0; k < cnt; k++ {
			i := b.Index(k)
			var kv values.Value
			var h uint64
			if lSlot >= 0 {
				if !hsValid[k] {
					continue
				}
				h = hs[k]
			} else {
				var ok bool
				if kv, ok = joinKeyAt(keys.cols, i); !ok {
					continue
				}
				h = kv.Hash()
			}
			part := &idx.parts[h>>js.shift]
			for e := part.head[h&part.mask]; e != 0; e = part.next[e-1] {
				ei := int(e - 1)
				if part.hashes[ei] != h || !entryMatches(part, ei, b, i, &kv) {
					continue
				}
				if err := g.add(b, i, part.batch[ei], part.row[ei]); err != nil {
					return err
				}
			}
		}
		err := g.flush(b)
		if delta := g.emitted - before; delta != 0 {
			psp.AddRows(delta)
			*matched += delta
		}
		return err
	}
	return probe, matched
}

// plan assembles the compiledPlan for a staged join: a serial run path
// (build may still go parallel; the probe is one pipeline) and, when the
// probe side is partitionable, an openRange path probing morsel-parallel
// against the eagerly sealed index.
func (js *joinState) plan(f *frame) *compiledPlan {
	cp := &compiledPlan{frame: f}
	cp.run = func(sink batchSink) error {
		idx, fold, err := js.buildIndex()
		if err != nil {
			return err
		}
		psp := fold.Child("join_probe")
		probe, matched := js.mkProber(idx, psp, sink)
		err = js.l.run(probe)
		psp.End()
		if js.opts.JoinStats != nil {
			js.opts.JoinStats(0, 0, *matched, 0)
		}
		return err
	}
	if js.l.openRange == nil {
		return cp
	}
	cp.openRange = func() (func(lo, hi int, sink batchSink) error, int, bool) {
		pscan, n, ok := js.l.openRange()
		if !ok || n < js.opts.ParallelThreshold {
			// Below the root's own parallel gate the caller would fall
			// back to run() anyway; declining here avoids building the
			// index twice.
			return nil, 0, false
		}
		// Eager build: openRange is called on the query's main goroutine
		// before any probe morsel is dispatched, so a parallel build's
		// Pool.Run never nests inside pool workers. A build failure is
		// stashed and surfaces from every probe morsel, preserving typed
		// errors (e.g. the memory-budget kill) through the scheduler.
		idx, fold, err := js.buildIndex()
		var psp *trace.Span
		if err == nil {
			psp = fold.Child("join_probe")
			psp.SetAttr("parallel", true)
			// psp stays open: probe morsels AddRows concurrently until
			// the root finishes, and the tracer's Finish settles it.
		}
		return func(lo, hi int, sink batchSink) error {
			if err != nil {
				return err
			}
			probe, matched := js.mkProber(idx, psp, sink)
			if perr := pscan(lo, hi, probe); perr != nil {
				return perr
			}
			if js.opts.JoinStats != nil {
				js.opts.JoinStats(0, 0, *matched, 0)
			}
			return nil
		}, n, true
	}
	return cp
}
