package jit

import (
	"context"
	"fmt"
	"runtime"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/monoid"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

var (
	listM = monoid.List
	bagM  = monoid.Bag
	setM  = monoid.Set
)

// SchemaCatalog extends the executor catalog with the source descriptions
// the JIT compiler needs to flatten scans into typed slots.
type SchemaCatalog interface {
	algebra.Catalog
	Description(name string) (*sdg.Description, bool)
}

// BatchSource is implemented by access paths that emit column-vector
// batches directly — typed (unboxed) columns where the schema allows.
// It is the one scan contract the executor consumes (through
// ScanBatches): the CSV plugin fills whole column vectors per
// positional-map jump, columnar cache entries serve their slices
// zero-copy, and the engine's catalog sources harvest every format's
// batches into the cache. Batches are reused between yields.
type BatchSource interface {
	IterateBatches(fields []string, batchSize int, yield func(*vec.Batch) error) error
}

// ScanBatches scans fields of src as batches: natively when src is a
// BatchSource, else through the record adapter — the one place a record
// stream becomes batches. The adapter types each column by its
// attribute's kind in rowType (vec.TagOf; Boxed when rowType does not
// name it); a value that does not fit demotes that column of the current
// batch to boxed (vec.Col.AppendValue), so a wrong schema costs speed,
// never answers. Empty fields scan whole values: one boxed column per
// datum, for open-schema sources.
func ScanBatches(src algebra.Source, rowType *sdg.Type, fields []string, batchSize int, yield func(*vec.Batch) error) error {
	if bs, ok := src.(BatchSource); ok && len(fields) > 0 {
		return bs.IterateBatches(fields, batchSize, yield)
	}
	if batchSize <= 0 {
		batchSize = vec.DefaultBatchSize
	}
	tags := make([]vec.Tag, max(len(fields), 1)) // zero value: Boxed
	if rowType != nil {
		for i, f := range fields {
			if a, ok := rowType.Attr(f); ok {
				tags[i] = vec.TagOf(a.Type.Kind)
			}
		}
	}
	b := vec.NewTyped(tags, min(batchSize, 128))
	flush := func() error {
		err := yield(b)
		for i := range b.Cols {
			b.Cols[i].Reset(tags[i]) // undo per-batch demotions
		}
		b.N, b.Sel = 0, nil
		return err
	}
	err := src.Iterate(fields, func(v values.Value) error {
		if len(fields) == 0 {
			b.Cols[0].AppendValue(v)
		}
		for i, f := range fields {
			fv, _ := v.Get(f)
			b.Cols[i].AppendValue(fv)
		}
		if b.N++; b.N < batchSize {
			return nil
		}
		return flush()
	})
	if err != nil || b.N == 0 {
		return err
	}
	return flush()
}

// RangeBatchSource is implemented by access paths that can serve an
// arbitrary row range of the source — the contract morsel-driven parallel
// scans build on. OpenRange resolves fields and snapshots auxiliary
// structures once; ok is false when the source cannot serve ranges right
// now (e.g. the positional map is not built yet). The returned scan
// function must be safe for concurrent calls over disjoint ranges.
type RangeBatchSource interface {
	OpenRange(fields []string) (scan func(lo, hi, batchSize int, yield func(*vec.Batch) error) error, n int, ok bool)
}

// batchSink receives pipeline batches. Batches are REUSED by the
// producer: a sink that retains data must copy it. A sink may refine
// b.Sel but must not mutate column storage.
type batchSink func(b *vec.Batch) error

// batchFilter refines b.Sel to the rows satisfying a predicate. A filter
// value carries per-run scratch (its selection buffer) and must not be
// shared between concurrent runs; factories (mkFilter) produce one per
// run or per morsel worker.
type batchFilter func(b *vec.Batch) error

// compiledPlan is one operator subtree staged into a closure pipeline.
type compiledPlan struct {
	frame *frame
	run   func(sink batchSink) error
	// openRange, when non-nil, attempts to open a partitioned runner over
	// the subtree: scan may be invoked concurrently over disjoint
	// [lo,hi) row ranges (each invocation allocates its own scratch).
	// It is set only for chains of per-row-independent operators over a
	// RangeBatchSource — the morsel scheduler's contract.
	openRange func() (scan func(lo, hi int, sink batchSink) error, n int, ok bool)
}

// Options tunes the generated pipelines.
type Options struct {
	// BatchSize is the row capacity of pipeline batches (default
	// vec.DefaultBatchSize).
	BatchSize int
	// Workers bounds the morsel-parallel scan workers (default
	// runtime.GOMAXPROCS(0); 1 disables parallelism).
	Workers int
	// ParallelThreshold is the minimum partitionable row count before a
	// fold — reduce, top-k, stream, group-by or join build — goes
	// parallel (default DefaultParallelThreshold). Small scans are not
	// worth the fan-out.
	ParallelThreshold int
	// Pool is the morsel scheduler executing parallel scans (default
	// sched.Default(), the process-wide shared pool). A query server
	// injects its own pool so every query draws from the same workers.
	Pool *sched.Pool
	// Ctx cancels execution: parallel scans stop dispatching morsels
	// when it is done (default context.Background()). Serial pipelines
	// observe cancellation through the catalog's context-checking
	// sources, not through this field.
	Ctx context.Context
	// NoExprKernels disables the vectorized arithmetic/projection
	// kernels (filters keep their PR-1 comparison shapes; computed
	// heads, keys and bind columns fall back to row-wise evaluation).
	// It exists for A/B benchmarking against the pre-kernel engine and
	// for fallback-equivalence tests; production code leaves it false.
	NoExprKernels bool
	// MemReserve, when non-nil, charges estimated bytes against the
	// query's memory budget at the sites that accumulate unbounded state
	// (retained join build sides, boxed collection results, dedup
	// tables). A non-nil error aborts the query with the caller's
	// budget error. Must be safe for concurrent calls.
	MemReserve func(delta int64) error
	// Trace, when non-nil, is the parent span for the operator spans the
	// generated pipeline records (fold, join build/probe, parallel
	// merge) and carries the kernel-staging attributes. Nil (disarmed)
	// costs a pointer test per operator.
	Trace *trace.Span
	// KernelStats, when non-nil, receives the compile-time tally of
	// pipeline stages staged as vectorized kernels vs. row-wise boxed
	// fallbacks — the engine feeds its always-on fallback counters with
	// it regardless of tracing.
	KernelStats func(vectorized, boxed int64)
	// GroupStats, when non-nil, receives the grouped-fold outcome after
	// each hash aggregation completes: distinct groups built, resident
	// group-table bytes, and how many morsel partials merged (0 for a
	// serial fold). The engine feeds its always-on aggregation counters
	// with it regardless of tracing.
	GroupStats func(groups, tableBytes, partialMerges int64)
	// JoinPartitions is the radix partition count of the hash-join build
	// (default DefaultJoinPartitions; rounded up to a power of two,
	// capped at maxJoinPartitions). One partition degenerates to a
	// single shared chain table.
	JoinPartitions int
	// JoinStats, when non-nil, receives delta-style join-fold tallies:
	// one call per sealed build (folds=1 with buildRows entries and
	// tableBytes resident) and one per completed probe pipeline
	// (probeRows matches emitted, possibly concurrent across probe
	// morsels). The engine feeds its always-on join counters with it
	// regardless of tracing. Must be safe for concurrent calls.
	JoinStats func(folds, buildRows, probeRows, tableBytes int64)
}

// DefaultParallelThreshold is the default minimum row count for
// morsel-parallel scans.
const DefaultParallelThreshold = 8192

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = vec.DefaultBatchSize
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ParallelThreshold <= 0 {
		o.ParallelThreshold = DefaultParallelThreshold
	}
	if o.Pool == nil {
		o.Pool = sched.Default()
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	if o.JoinPartitions <= 0 {
		o.JoinPartitions = DefaultJoinPartitions
	}
	if o.JoinPartitions > maxJoinPartitions {
		o.JoinPartitions = maxJoinPartitions
	}
	// Round up to a power of two: the radix split is hash >> shift.
	p := 1
	for p < o.JoinPartitions {
		p *= 2
	}
	o.JoinPartitions = p
	return o
}

// compiler holds per-query compilation state.
type compiler struct {
	cat     algebra.Catalog
	schemas SchemaCatalog // may be nil
	baseEnv *mcl.Env
	opts    Options
	// vecStages/boxedStages tally each staging decision (filter, bind,
	// aggregate head, sort key, grouping key, aggregate input, join key):
	// vectorized kernel vs. row-wise boxed fallback. boxedExprs keeps
	// the first boxed expressions so a trace can name the fallback.
	vecStages   int64
	boxedStages int64
	boxedExprs  [maxBoxedExprs]mcl.Expr
}

// maxBoxedExprs bounds the boxed stage expressions a trace names.
const maxBoxedExprs = 4

// tally counts one staging decision of e: vectorized or boxed fallback.
func (c *compiler) tally(e mcl.Expr, boxed bool) {
	if !boxed {
		c.vecStages++
		return
	}
	if c.boxedStages < maxBoxedExprs {
		c.boxedExprs[c.boxedStages] = e
	}
	c.boxedStages++
}

// reportKernels publishes the staging tally to the options hooks once
// compilation succeeded. The trace names the boxed expressions
// (boxed_exprs), so EXPLAIN ANALYZE shows which stage fell back.
func (c *compiler) reportKernels() {
	if c.opts.KernelStats != nil {
		c.opts.KernelStats(c.vecStages, c.boxedStages)
	}
	if sp := c.opts.Trace; sp != nil {
		sp.SetAttr("kernels_vectorized", c.vecStages)
		sp.SetAttr("kernels_boxed", c.boxedStages)
		sp.SetAttr("boxed_fallback", c.boxedStages > 0)
		if c.boxedStages > 0 {
			var named []string
			for _, e := range c.boxedExprs[:min(c.boxedStages, maxBoxedExprs)] {
				named = append(named, e.String())
			}
			sp.SetAttr("boxed_exprs", named)
		}
	}
}

// prepare is the compile prelude both execution modes share: compiler
// setup, free-source materialization, the input pipeline and — for a
// grouped reduce — the hash-aggregation stage. The input subtree then
// folds into the group table once (single scan), and the returned root
// runs over group rows with the grouping clause stripped: Pred is
// HAVING, Order/Limit rank groups.
func (c *compiler) prepare(p *algebra.Reduce, cat algebra.Catalog, opts Options) (*algebra.Reduce, *compiledPlan, error) {
	c.cat, c.opts = cat, opts.withDefaults()
	c.schemas, _ = cat.(SchemaCatalog)
	env, err := c.materializeFreeSources(p)
	if err != nil {
		return nil, nil, err
	}
	c.baseEnv = env
	input, err := c.compilePlan(p.Input)
	if err != nil {
		return nil, nil, err
	}
	if p.Grouped() {
		if input, err = c.compileGroupAgg(p, input); err != nil {
			return nil, nil, err
		}
		p = shadowGrouped(p)
	}
	return p, input, nil
}

// Executor is the just-in-time engine. The zero value is ready to use
// (default batch size and worker count).
type Executor struct {
	Opts Options
}

// Run implements algebra.Executor: it generates the specialized pipeline
// for this exact plan ("database as a query") and runs it.
func (e Executor) Run(p *algebra.Reduce, cat algebra.Catalog) (values.Value, error) {
	return e.RunCtx(e.Opts.Ctx, p, cat)
}

// RunCtx is Run with a cancellation context: the morsel scheduler stops
// dispatching this query's morsels once ctx is done.
func (e Executor) RunCtx(ctx context.Context, p *algebra.Reduce, cat algebra.Catalog) (values.Value, error) {
	opts := e.Opts
	opts.Ctx = ctx
	prog, err := CompileWith(p, cat, opts)
	if err != nil {
		return values.Null, err
	}
	return prog()
}

// CompileWith stages the plan into an executable program. Compilation is
// the reproduction's analogue of the paper's per-query code generation:
// all schema resolution, slot layout, plugin selection and operator
// fusion happen here, once, leaving a closure chain with no per-row
// decisions. The staged pipeline moves data batch-at-a-time (column
// vectors with typed fast paths) and, when the access path supports row
// ranges, executes the scan morsel-parallel with per-worker partial
// aggregates merged in morsel order at the root reduce.
func CompileWith(p *algebra.Reduce, cat algebra.Catalog, opts Options) (func() (values.Value, error), error) {
	c := &compiler{}
	p, input, err := c.prepare(p, cat, opts)
	if err != nil {
		return nil, err
	}
	// Ordered and bounded roots replace the monoid collector: sort keys
	// turn the fold into a keyed top-k, a bare LIMIT/OFFSET routes
	// through the streaming quota (early producer cancellation) and
	// collects the surviving rows.
	var prog func() (values.Value, error)
	switch {
	case p.Order.Ordered():
		var topk func() ([]values.Value, error)
		topk, err = c.compileTopK(p, input)
		prog = func() (values.Value, error) {
			elems, err := topk()
			if err != nil {
				return values.Null, err
			}
			return values.NewList(elems...), nil
		}
	case p.Order != nil:
		prog, err = c.compileBareBound(p, input)
	default:
		prog, err = c.compileReduce(p, input)
	}
	if err != nil {
		return nil, err
	}
	c.reportKernels()
	return prog, nil
}

// compileReduce stages the monoid-reduce root in collect mode.
func (c *compiler) compileReduce(p *algebra.Reduce, input *compiledPlan) (func() (values.Value, error), error) {
	mkCons, err := c.compileReduceConsumer(p, input)
	if err != nil {
		return nil, err
	}
	opts := c.opts
	return func() (values.Value, error) {
		// The fold span wraps the whole pipeline run (the scan feeds the
		// consumer in one closure chain), so its wall time is inclusive
		// of scan time — phase rollups subtract scan spans.
		sp := opts.Trace.Child("fold")
		sp.SetAttr("kind", "reduce")
		defer sp.End()
		acc, _, err := runFold(sp, input, opts, mkCons, mergeCollectors)
		if err != nil {
			return values.Null, err
		}
		return acc.Result(), nil
	}, nil
}

// materializeFreeSources loads catalog sources referenced from inside
// expressions (correlated subqueries) into the base environment, as the
// reference executor does.
func (c *compiler) materializeFreeSources(p algebra.Plan) (*mcl.Env, error) {
	bound := map[string]bool{}
	for _, v := range algebra.BoundVars(p) {
		bound[v] = true
	}
	needed := map[string]bool{}
	collect := func(e mcl.Expr) {
		if e == nil {
			return
		}
		for _, v := range mcl.FreeVars(e) {
			if !bound[v] {
				if _, ok := c.cat.Source(v); ok {
					needed[v] = true
				}
			}
		}
	}
	var walk func(algebra.Plan)
	walk = func(p algebra.Plan) {
		switch n := p.(type) {
		case *algebra.Scan:
			collect(n.Filter)
		case *algebra.Generate:
			collect(n.E)
		case *algebra.Select:
			collect(n.Pred)
		case *algebra.Join:
			for _, on := range n.On {
				collect(on.LExpr)
				collect(on.RExpr)
			}
			collect(n.Residual)
		case *algebra.Bind:
			collect(n.E)
		case *algebra.Reduce:
			collect(n.Head)
			collect(n.Pred)
			for _, k := range n.GroupBy {
				collect(k.E)
			}
			for _, a := range n.Aggs {
				collect(a.E)
			}
			if n.Order != nil {
				for _, k := range n.Order.Keys {
					collect(k.E)
				}
			}
		}
		for _, in := range p.Inputs() {
			walk(in)
		}
	}
	walk(p)
	bindings := map[string]values.Value{}
	for name := range needed {
		v, err := algebra.Materialize(c.cat, name)
		if err != nil {
			return nil, err
		}
		bindings[name] = v
	}
	return mcl.NewEnv(bindings), nil
}

// compileFilter stages a predicate as a batch filter factory: vectorized
// kernels for the comparison shapes the compiler recognizes, a row-wise
// boxed fallback otherwise. Each factory call returns a filter with its
// own scratch, safe for one (serial) run or one morsel worker. A nil
// predicate stages no filter (nil factory).
func (c *compiler) compileFilter(e mcl.Expr, f *frame) (func() batchFilter, error) {
	if e == nil {
		return nil, nil
	}
	vf := compileVecFilter(e, f, !c.opts.NoExprKernels)
	c.tally(e, vf == nil)
	if vf != nil {
		return vf, nil
	}
	pred, err := c.compileExpr(e, f)
	if err != nil {
		return nil, err
	}
	width := f.width()
	return func() batchFilter {
		row := make([]values.Value, width)
		// Non-nil even when empty: a nil Sel means "all rows live".
		sel := make([]int, 0, 64)
		return func(b *vec.Batch) error {
			sel = sel[:0]
			n := b.Len()
			for k := 0; k < n; k++ {
				i := b.Index(k)
				fillRow(b, i, row)
				pv, err := pred(row)
				if err != nil {
					return err
				}
				if pv.Kind() == values.KindBool && pv.Bool() {
					sel = append(sel, i)
				}
			}
			b.Sel = sel
			return nil
		}
	}, nil
}

// compileValue stages a per-row value that feeds a stage — an
// aggregate head, a sort key, a grouping key or aggregate input — on
// the cheapest path that serves it, and tallies the decision: a slot
// reference reads its column (slot >= 0), else an expression kernel
// computes a column per batch (kernel != nil), else a row-wise compiled
// expression boxes it (expr, the fallback).
func (c *compiler) compileValue(e mcl.Expr, f *frame) (slot int, kernel func() vecExpr, expr compiledExpr, err error) {
	slot, kernel, expr, err = c.compileRowValue(e, f)
	c.tally(e, expr != nil)
	return slot, kernel, expr, err
}

// compileRowValue is compileValue untallied, for heads that only build
// the emitted row (a collection's elements): that boxing is the result
// boundary, not a stage.
func (c *compiler) compileRowValue(e mcl.Expr, f *frame) (slot int, kernel func() vecExpr, expr compiledExpr, err error) {
	if slot = slotOf(e, f); slot >= 0 {
		return slot, nil, nil, nil
	}
	if !c.opts.NoExprKernels {
		if kernel = compileVecExpr(e, f); kernel != nil {
			return slot, kernel, nil, nil
		}
	}
	expr, err = c.compileExpr(e, f)
	return slot, nil, expr, err
}

// fillRow boxes physical row i of b into row, one entry per slot.
func fillRow(b *vec.Batch, i int, row []values.Value) {
	for s := range b.Cols {
		row[s] = b.Cols[s].Value(i)
	}
}

func (c *compiler) compilePlan(p algebra.Plan) (*compiledPlan, error) {
	if p == nil {
		// Unit input: one empty row.
		f := newFrame()
		return &compiledPlan{frame: f, run: func(sink batchSink) error {
			return sink(&vec.Batch{N: 1})
		}}, nil
	}
	switch n := p.(type) {
	case *algebra.Scan:
		return c.compileScan(n)
	case *algebra.Select:
		return c.compileSelect(n)
	case *algebra.Bind:
		return c.compileBind(n)
	case *algebra.Generate:
		return c.compileGenerate(n)
	case *algebra.Product:
		return c.compileProduct(n)
	case *algebra.Join:
		return c.compileJoin(n)
	case *algebra.Reduce:
		return nil, fmt.Errorf("jit: nested Reduce plans are not supported")
	}
	return nil, fmt.Errorf("jit: unknown plan node %T", p)
}

// compileScan stages a scan loop over the source's batches (see
// ScanBatches): attribute slots when the plan or schema names the fields,
// else one whole-value slot per datum (open-schema JSON). A filter pushed
// into the scan refines each batch's selection before the sink sees it.
func (c *compiler) compileScan(n *algebra.Scan) (*compiledPlan, error) {
	src, ok := c.cat.Source(n.Source)
	if !ok {
		return nil, fmt.Errorf("jit: unknown source %q", n.Source)
	}
	// Determine the attribute list: explicit plan fields, else the full
	// schema when known, else whole-value binding.
	fields := n.Fields
	var rowType *sdg.Type
	if c.schemas != nil {
		if desc, ok := c.schemas.Description(n.Source); ok {
			rowType = desc.IterationType()
		}
	}
	if len(fields) == 0 && rowType != nil && rowType.Kind == sdg.TRecord {
		fields = rowType.AttrNames()
	}
	bs := c.opts.BatchSize

	f := newFrame()
	if len(fields) == 0 {
		f.add(n.Var, "")
	}
	for _, fld := range fields {
		f.add(n.Var, fld)
	}
	// A pushed-down filter is the scan's one stage: the serial run and
	// the range scan both open it, once per run or morsel.
	var filter stage
	if n.Filter != nil {
		mkFilter, err := c.compileFilter(n.Filter, f)
		if err != nil {
			return nil, err
		}
		filter = filterStage(mkFilter)
	}
	cp := &compiledPlan{frame: f}
	cp.run = func(sink batchSink) error {
		return ScanBatches(src, rowType, fields, bs, openFilter(filter, sink))
	}
	if rsrc, ok := src.(RangeBatchSource); ok && len(fields) > 0 {
		cp.openRange = func() (func(lo, hi int, sink batchSink) error, int, bool) {
			scan, total, ok := rsrc.OpenRange(fields)
			if !ok {
				return nil, 0, false
			}
			return func(lo, hi int, sink batchSink) error {
				return scan(lo, hi, bs, openFilter(filter, sink))
			}, total, true
		}
	}
	return cp, nil
}

// stage is one per-row operator — scan filter, Select, Bind, Generate —
// staged once at compile time. open instantiates it over a downstream
// sink with its own scratch, for one serial run or one morsel: it
// returns the sink its input feeds and, for an operator that buffers
// output (Generate repacks exploded rows), the flusher to drain once
// the input is exhausted (nil otherwise).
type stage interface {
	open(sink batchSink) (batchSink, flusher)
}

// flusher drains the output an operator still buffers.
type flusher interface{ Flush() error }

// staged returns the plan of st over in. Its serial run and — when in
// partitions — its range scan both come from the one stage, so a chain
// of per-row operators stays partitionable end to end.
func staged(in *compiledPlan, f *frame, st stage) *compiledPlan {
	cp := &compiledPlan{frame: f}
	cp.run = func(sink batchSink) error {
		s, fl := st.open(sink)
		if err := in.run(s); err != nil || fl == nil {
			return err
		}
		return fl.Flush()
	}
	if in.openRange != nil {
		cp.openRange = func() (func(lo, hi int, sink batchSink) error, int, bool) {
			scan, total, ok := in.openRange()
			if !ok {
				return nil, 0, false
			}
			return func(lo, hi int, sink batchSink) error {
				s, fl := st.open(sink)
				if err := scan(lo, hi, s); err != nil || fl == nil {
					return err
				}
				return fl.Flush()
			}, total, true
		}
	}
	return cp
}

// filterStage fuses a filter into the batch stream: no operator
// boundary, just a selection-vector refinement between producer and
// sink. Batches left empty stop there.
type filterStage func() batchFilter

func (mk filterStage) open(sink batchSink) (batchSink, flusher) {
	flt := mk()
	return func(b *vec.Batch) error {
		if err := flt(b); err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
		return sink(b)
	}, nil
}

// openFilter opens an optional filter stage over sink.
func openFilter(filter stage, sink batchSink) batchSink {
	if filter == nil {
		return sink
	}
	sink, _ = filter.open(sink)
	return sink
}

func (c *compiler) compileSelect(n *algebra.Select) (*compiledPlan, error) {
	in, err := c.compilePlan(n.Input)
	if err != nil {
		return nil, err
	}
	mkFilter, err := c.compileFilter(n.Pred, in.frame)
	if err != nil {
		return nil, err
	}
	return staged(in, in.frame, filterStage(mkFilter)), nil
}

// bindStage extends each batch with one computed column. Column storage
// of the input batch is shared (headers copied, payloads untouched);
// only the extension column is materialized, at the rows' physical
// indices.
type bindStage struct {
	kernel  func() vecExpr // nil: row-wise boxed evaluation of e
	e       compiledExpr
	inWidth int
}

func (st *bindStage) open(sink batchSink) (batchSink, flusher) {
	var out vec.Batch
	if st.kernel != nil {
		// Projection kernel: the extension column is computed typed per
		// batch (int64/float64 payloads when the inputs are), so
		// downstream filters and aggregates over the bound variable stay
		// on the unboxed fast paths. The kernel owns the column storage,
		// so the extended batch is never zero-copy-stable.
		k := st.kernel()
		return func(b *vec.Batch) error {
			col, err := k(b)
			if err != nil {
				return err
			}
			out.Cols = append(out.Cols[:0], b.Cols...)
			out.Cols = append(out.Cols, *col)
			out.N = b.N
			out.Sel = b.Sel
			return sink(&out)
		}, nil
	}
	row := make([]values.Value, st.inWidth)
	var ext []values.Value
	return func(b *vec.Batch) error {
		if cap(ext) < b.N {
			ext = make([]values.Value, b.N)
		}
		ext = ext[:b.N]
		n := b.Len()
		for k := 0; k < n; k++ {
			i := b.Index(k)
			fillRow(b, i, row)
			v, err := st.e(row)
			if err != nil {
				return err
			}
			ext[i] = v
		}
		out.Cols = append(out.Cols[:0], b.Cols...)
		out.Cols = append(out.Cols, vec.Col{Tag: vec.Boxed, Boxed: ext})
		out.N = b.N
		out.Sel = b.Sel
		return sink(&out)
	}, nil
}

func (c *compiler) compileBind(n *algebra.Bind) (*compiledPlan, error) {
	in, err := c.compilePlan(n.Input)
	if err != nil {
		return nil, err
	}
	f := in.frame.clone()
	f.add(n.Var, "")
	st := &bindStage{inWidth: in.frame.width()}
	if !c.opts.NoExprKernels {
		st.kernel = compileVecExpr(n.E, in.frame)
	}
	c.tally(n.E, st.kernel == nil)
	if st.kernel == nil {
		if st.e, err = c.compileExpr(n.E, in.frame); err != nil {
			return nil, err
		}
	}
	return staged(in, f, st), nil
}

// generateStage explodes a collection-valued expression: each input row
// repeats once per element, with the element bound in the new slot. The
// output is repacked into boxed batches (explosion changes
// cardinality), so the packer is the stage's flusher.
type generateStage struct {
	e                 compiledExpr
	inWidth, outWidth int
	batchSize         int
}

func (st *generateStage) open(sink batchSink) (batchSink, flusher) {
	p := vec.NewPacker(st.outWidth, st.batchSize, sink)
	buf := make([]values.Value, st.outWidth)
	row := buf[:st.inWidth]
	return func(b *vec.Batch) error {
		n := b.Len()
		for k := 0; k < n; k++ {
			i := b.Index(k)
			fillRow(b, i, row)
			coll, err := st.e(row)
			if err != nil {
				return err
			}
			if coll.IsNull() {
				continue
			}
			if !coll.IsCollection() && coll.Kind() != values.KindArray {
				return fmt.Errorf("jit: generate over %s", coll.Kind())
			}
			for _, el := range coll.Elems() {
				buf[st.inWidth] = el
				if err := p.Add(buf); err != nil {
					return err
				}
			}
		}
		return nil
	}, p
}

func (c *compiler) compileGenerate(n *algebra.Generate) (*compiledPlan, error) {
	in, err := c.compilePlan(n.Input)
	if err != nil {
		return nil, err
	}
	f := in.frame.clone()
	f.add(n.Var, "")
	e, err := c.compileExpr(n.E, in.frame)
	if err != nil {
		return nil, err
	}
	st := &generateStage{e: e, inWidth: in.frame.width(), outWidth: f.width(), batchSize: c.opts.BatchSize}
	return staged(in, f, st), nil
}

func (c *compiler) compileProduct(n *algebra.Product) (*compiledPlan, error) {
	l, err := c.compilePlan(n.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compilePlan(n.R)
	if err != nil {
		return nil, err
	}
	f := l.frame.clone()
	for _, s := range r.frame.slots {
		f.add(s.key.varName, s.key.attr)
	}
	lw, rw := l.frame.width(), r.frame.width()
	bs := c.opts.BatchSize
	return &compiledPlan{frame: f, run: func(sink batchSink) error {
		// Materialize the right side once (it restarts per left row),
		// typed, and pair every left row with every right row through
		// the join's gather.
		right, rb, rr, err := retainRows(r.run)
		if err != nil {
			return err
		}
		g := newPairGather(lw, rw, bs, right, nil, sink)
		return l.run(func(b *vec.Batch) error {
			n := b.Len()
			for k := 0; k < n; k++ {
				i := b.Index(k)
				for j := range rb {
					if err := g.add(b, i, rb[j], rr[j]); err != nil {
						return err
					}
				}
			}
			return g.flush(b)
		})
	}}, nil
}

// buildCompactFactor is the selection-density threshold below which a
// transient build-side batch is compacted before retention: when the
// filter kept at most 1/buildCompactFactor of the batch's physical rows,
// copying just the survivors beats retaining the whole batch. Stable
// (cache-owned) batches are never compacted — their retention is a
// zero-copy header and compaction would allocate.
const buildCompactFactor = 4

// retainForBuild retains one build-side batch, compacting sparse
// transient batches so a heavily filtered build side holds its survivors
// only, not every physical row. compacted reports that the result is
// re-indexed (physical row k = k-th live row of b).
func retainForBuild(b *vec.Batch) (stored vec.Batch, compacted bool) {
	if !b.Stable && b.Sel != nil && b.Len()*buildCompactFactor <= b.N {
		return b.Compact(), true
	}
	return b.Retain(), false
}

// compileJoin stages a partitioned hash join: the right side is the
// build side (its materialization is the operator's "output plugin"
// state), the left side probes. Null keys never match. The staged
// machinery lives in join.go — a radix-partitioned build (morsel-
// parallel over partitionable build sides) sealed into an immutable
// shared index, probed serially by run and morsel-parallel through
// openRange when the probe side is partitionable.
func (c *compiler) compileJoin(n *algebra.Join) (*compiledPlan, error) {
	l, err := c.compilePlan(n.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compilePlan(n.R)
	if err != nil {
		return nil, err
	}
	f := l.frame.clone()
	for _, s := range r.frame.slots {
		f.add(s.key.varName, s.key.attr)
	}
	// Key components stage like any per-row value (slot, kernel or boxed
	// fallback, tallied); the residual is a batch filter over the
	// joined frame, run on each gathered output batch.
	lKeys := make([]func() valGetter, len(n.On))
	rKeys := make([]func() valGetter, len(n.On))
	for i, on := range n.On {
		if lKeys[i], err = c.mkGetter(on.LExpr, l.frame); err != nil {
			return nil, err
		}
		if rKeys[i], err = c.mkGetter(on.RExpr, r.frame); err != nil {
			return nil, err
		}
	}
	residual, err := c.compileFilter(n.Residual, f)
	if err != nil {
		return nil, err
	}
	// Slot-reference keys — the overwhelmingly common case — read their
	// column directly, skipping row materialization. This is the kind of
	// decision the generated code specializes away.
	lSlot, rSlot := -1, -1
	if len(n.On) == 1 {
		lSlot = slotOf(n.On[0].LExpr, l.frame)
		rSlot = slotOf(n.On[0].RExpr, r.frame)
	}
	parts := c.opts.JoinPartitions
	shift := uint(64)
	for p := parts; p > 1; p /= 2 {
		shift--
	}
	js := &joinState{
		l: l, r: r,
		lSlot: lSlot, rSlot: rSlot,
		lKeys: lKeys, rKeys: rKeys,
		residual: residual,
		lw:       l.frame.width(),
		rw:       r.frame.width(),
		opts:     c.opts,
		parts:    parts,
		shift:    shift,
	}
	return js.plan(f), nil
}
