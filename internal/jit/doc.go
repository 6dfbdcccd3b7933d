// Package jit implements ViDa's two execution engines over the algebra.
//
// # The just-in-time executor
//
// Every operator is generated at query time by composing specialized
// closures (paper §4). Attribute references are resolved to frame-slot
// indices at compile time, scan plugins decode only the attributes the
// query touches, non-blocking operator chains are fused into a single
// loop, and generic branches (type checks, record lookups) are eliminated
// where the schema is known. Closure staging is this reproduction's
// substitute for the paper's LLVM code generation — it removes the same
// interpretation overheads relative to the static engine.
//
// # Batch format
//
// The staged pipeline moves data batch-at-a-time rather than row-at-a-
// time: a vec.Batch is a fixed-capacity run of rows (default 1024)
// decomposed into per-slot column vectors. Columns are typed where the
// source schema allows — int64/float64/string payloads parsed straight
// from raw bytes, with an optional validity mask — and boxed
// ([]values.Value) otherwise. Filters refine a selection vector (Sel)
// instead of copying survivors, which lets columnar cache entries serve
// their slices zero-copy; values are boxed only at the typed→generic
// boundaries: interpreted expressions, the elements a collection root
// emits, and the monoid-reduce root when no unboxed kernel applies.
//
// Scans consume one contract: BatchSource, plus the optional
// RangeBatchSource for morsel-parallel range scans. ScanBatches is the
// single entry point: a BatchSource serves its own batches, and a plugin
// that only offers records (algebra.Source: JSON, arrays, spreadsheets,
// in-memory views) goes through the one record adapter, which types each
// column by its schema kind (vec.TagOf) and demotes a batch column to
// boxed when a value does not fit. The engine's catalog sources
// implement the contract for every format and harvest each raw scan's
// batches into the typed columnar cache, so warm scans of previously
// touched fields are zero-copy slice windows whatever the file format.
//
// # Vectorized kernels
//
// Three kernel families keep hot paths off values.Value entirely; each
// dispatches on the columns' runtime representation once per batch, so
// the same staged pipeline serves typed CSV vectors, zero-copy cache
// slices and boxed fallback batches:
//
//   - Comparison filters refine the selection vector: slot⊕const,
//     slot⊕slot and conjunctions, with typed int/float/string loops.
//   - Expression kernels (vecexpr.go) stage arithmetic/projection
//     trees — + - * / % and negation over slots, numeric constants
//     folded into the kernel — into per-batch column loops. A numeric
//     constant on its own is a broadcast kernel (a column filled once
//     and reused across batches), so COUNT(*) — which lowers to
//     `sum 1` — and every other constant head or aggregate input take
//     the typed count/sum/avg paths. They feed comparison filters over
//     computed values, reduce heads, ORDER BY key extraction, stream
//     heads and Bind extension columns (which then stay typed for
//     everything downstream). Inputs that arrive
//     boxed at run time take a row-wise mcl.ApplyBinOp loop inside the
//     kernel, so semantics (null propagation, int/float promotion,
//     division-by-zero errors, string concatenation) are byte-identical
//     with the row engine. Options.NoExprKernels disables this family
//     for A/B benchmarks and fallback-equivalence tests.
//   - Join-key kernels (hash.go) hash the key column of each build and
//     probe batch in one tag-dispatched pass using the scalar hash
//     helpers of internal/values (typed rows hash identically to their
//     boxed forms), and verify hash matches with typed equality —
//     slot-keyed hash joins never box a key row.
//
// Unboxed reduce kernels cover the count/sum/avg/min/max monoids over
// slot or kernel heads; every other shape falls back to the row-wise
// compiled closures, batch by batch.
//
// Bound parameters reach the kernels as literals: mcl.BindParams folds
// each binary expression whose operands are both constants once bound,
// so `p.id < $1 + 1000` compiles as a slot-vs-constant filter. A fold
// that fails (`$1 / 0`) is left in place and errors row by row, as the
// row engine does, and not at all over an empty input.
//
// Every staging decision is tallied — filters, aggregate heads, sort
// keys, grouping keys and aggregate inputs, join keys and residuals,
// Bind columns — as vectorized or boxed (Options.KernelStats, the
// kernels_vectorized/kernels_boxed span attributes). The span's
// boxed_exprs attribute names the first four boxed expressions, so
// EXPLAIN ANALYZE shows which stage fell back. A collection head that
// only builds the emitted elements is the result boundary, not a
// stage, and is not tallied.
//
// # Grouped aggregation
//
// A Reduce carrying GroupBy keys stages a vectorized hash-aggregation
// consumer (groupagg.go) instead of a scalar fold: an open-addressing
// table maps key tuples to dense group indices, and each aggregate
// folds into a typed per-group accumulator array (count/sum/avg/
// min/max), with one boxed Collector per group as the generic
// fallback. Key hashing and aggregate-head evaluation run per batch
// through the same kernel families as ungrouped reduces; the per-row
// key equality check on a hash match compares column payloads against
// unpacked primitive mirrors of the stored keys, so the probe loop
// never touches a boxed values.Value. Partitionable scans fold
// morsel-parallel with per-worker tables merged at the root in morsel
// order, which keeps unordered group output in deterministic
// first-occurrence order. HAVING applies post-fold over the group
// scope, and the table's growth is charged against the query memory
// budget.
//
// # Morsel-parallel folds
//
// Every fold — the monoid reduce, the keyed top-k, the plain and
// bare-LIMIT streams, the grouped hash aggregate and the hash-join
// build — runs through one driver, runFold (parallel.go). Each fold
// kind is a folder: per-run scratch that folds batches into a partial
// (a Collector, a TopKAcc, a group table, a join partial, or nothing
// for a stream). The per-row operators below a fold (scan filter,
// select, bind, generate) are each staged once as a stage whose open
// serves both the serial run and the range scan, so a chain of them
// over a RangeBatchSource (the CSV plugin over a built positional map,
// columnar cache entries) stays partitionable. The driver goes
// parallel when Options.Workers > 1, the input opens a row range and
// the range holds at least Options.ParallelThreshold rows; it splits
// the range into morsels of max(BatchSize, ⌈n/4W⌉) rows, runs them as
// one job on the shared scheduler pool, and keeps three rules:
//
//   - openRange runs on the query goroutine before any morsel is
//     dispatched, so a join's eager index build never nests Pool.Run
//     inside a pool worker.
//   - Partials merge at the root in morsel order. Merging with the
//     monoid's associative ⊕ keeps results exactly equal to the serial
//     fold, including for the non-commutative list monoid.
//   - Only commutative stream roots (bag, set) emit from their workers
//     in completion order; a list stream runs serially.
//
// The fold span records parallel, and morsels and workers when the
// fold went parallel (for the join build, its join_build span).
//
// # Partitioned parallel hash join
//
// Equi-joins (join.go) extend the same morsel machinery to both join
// sides. The build side is a fold through the same driver: each morsel
// hashes its
// key column with the join-key kernels, radix-partitions rows by the
// top hash bits into Options.JoinPartitions private chunks (null keys
// dropped — NULL = NULL never matches), and retains the batch,
// compacting it first when a selective filter left few survivors. A
// seal step concatenates the per-morsel partials in morsel order into
// one immutable index — per partition a power-of-two bucket-head array
// over entry chains that enumerate entries in build-scan order — after
// which probe morsels share the index without synchronization and
// produce output byte-identical to the serial join for any worker or
// partition count (pinned by the differential fuzzer in
// join_diff_test.go). Retained batches and index arrays charge the
// query memory budget; builds under Options.ParallelThreshold rows stay
// serial over an identical index layout. The join traces as a fold span
// (kind=join) with join_build/join_seal/join_probe children.
//
// The probe emits typed batches (gather.go): per probe batch it queues
// the matched pairs — the probe row plus the build entry's retained
// batch and row — and gathers them into a reused output batch of up to
// BatchSize rows, copying int64, float64 and string payloads with their
// null masks (dictionary codes gather as strings). Only a column whose
// sources disagree on representation, such as a demoted build batch, is
// boxed, and only for that output batch. The residual runs as a batch
// filter over the gathered rows. The product uses the same gather over
// its retained right side, so operators above a join or a product stay
// on their typed paths.
//
// # Pull-sink streaming mode
//
// Collection-rooted plans (list/bag/set reduces) have a second execution
// mode next to collect-into-a-Collector. CompileStream and CompileWith
// share one prelude (compiler setup, free-source materialization,
// group-agg interposition) and every stage below the root; only the
// root differs: a streamConsumer evaluates the head per live row and
// emits fixed-size chunks of head values to a caller-supplied
// StreamSink instead of folding into a collector. The sink owns each
// emitted chunk, so a cursor layer can hand chunks across a bounded
// channel without copying; backpressure from a slow consumer blocks the
// producer inside emit, which keeps resident memory at O(channel
// capacity × chunk size) regardless of result cardinality, and gives
// first-row latency independent of total result size. For the
// commutative bag and set monoids, large partitionable scans stream
// morsel-parallel with workers emitting chunks in completion order; the
// non-commutative list monoid streams serially so element order matches
// the collect mode exactly. Scalar aggregates keep the collect mode:
// their value is only known after the full fold, so there is nothing to
// stream.
//
// # ORDER BY / LIMIT / OFFSET pushdown
//
// An ordered plan (Reduce.Order with sort keys) replaces the root fold
// with a keyed top-k accumulator (monoid.TopKAcc): per live row the sort
// keys are evaluated (slot fast paths where they are pure column
// references) and the entry offered to a bounded heap retaining at most
// offset+limit entries — heap memory is O(offset+limit), never O(rows).
// A keys-only competitiveness pre-check rejects rows that cannot place
// before their head expression is evaluated, so a wide SELECT under a
// small LIMIT folds allocation-free in the steady state. When the first
// sort key is an int64/float64 column (a slot or a kernel) and the heap
// is full, the pre-check runs unboxed: the row's first key is compared
// with the worst retained entry's (monoid.TopKAcc.Worst) under
// values.Compare's numeric order, and only rows that tie or that it
// cannot decide (nulls, a non-numeric bar) box their keys. The fold runs
// morsel-parallel over partitionable scans: each worker keeps its own
// bounded partial heap and partials merge at the root — sound for any
// collection monoid because the final sort's total order (keys, then the
// element value as tiebreaker) does not depend on input order, which
// also makes parallel top-k results deterministic across worker counts.
// Set plans deduplicate at finalize (first entry in key order wins), so
// DISTINCT + ORDER BY + LIMIT bounds distinct elements; dedup disables
// the heap bound. In stream mode the fold is blocking: chunks of the
// sorted, offset/limit-applied elements are emitted once the fold
// completes, so ordered NDJSON responses buffer nothing beyond the heap.
//
// A bare LIMIT/OFFSET (no sort keys) on a collection plan instead pushes
// a row quota into the stream: offset rows are dropped, at most limit
// rows emitted, and the moment the quota fills the remaining producers
// are cancelled — the sentinel stops the serial pipeline mid-scan and a
// context cancellation stops morsel dispatch in the shared scheduler, so
// a cold 300k-row scan under LIMIT 10 reads a few batches, not the file.
// Which rows survive a bare bag limit is unspecified (bag semantics);
// list plans take their in-order prefix. Collect mode shares the same
// quota machinery and gathers the surviving chunks into the declared
// collection.
//
// # The static executor
//
// Pre-cooked generic Volcano operators pipelined over Go channels,
// evaluating expressions by AST interpretation on every row. This mirrors
// the paper's own fallback engine ("the static executor is written in GO,
// exploiting GO's channels to offer pipelined execution") and serves as
// the baseline of the JIT-vs-static ablation (experiment E6).
package jit
