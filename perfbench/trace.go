package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"vida"
	"vida/internal/algebra"
	"vida/internal/cache"
	"vida/internal/colenc"
	"vida/internal/core"
	"vida/internal/mcl"
	"vida/internal/optimizer"
	"vida/internal/rawcsv"
	"vida/internal/rawjson"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/serve"
	"vida/internal/sqlfront"
	"vida/internal/values"
	"vida/internal/vec"
)

// The traced run. Per-layer numbers come only from here: it times calls
// into each layer's public functions from outside the engine and reads
// the counters the layers already export. Nothing inside the engine is
// instrumented. Every per-layer metric is measured on every workload,
// over that workload's own inputs and query texts, so the workload that
// bypasses a layer shows it flat.

// probe is one warm query the jit and serve probes run.
type probe struct {
	class string
	text  string // comprehension text, or SQL when sql is set
	sql   bool
	args  []any
}

// rawFile names a raw input and the fields a probe scan touches; extra
// is the field a second scan adds through the positional map.
type rawFile struct {
	name, path, schema string
	fields             []string
	extra              string
}

// replayResult is what one fixed slice of a workload's own operations
// did: completed queries, wall time, and the engine counters it moved.
type replayResult struct {
	queries int64
	elapsed time.Duration
	stats   counters
}

// layerEnv is what a workload hands the traced run.
type layerEnv struct {
	// replay runs a fixed slice of the workload, traced when tr is set:
	// queries run on the engine are split into Prepare and Run calls
	// through tr, and HTTP requests get an engine counter snapshot on
	// each side.
	replay func(tr *tracer) (replayResult, error)
	// eng is the workload's warmed engine; open makes a fresh one with
	// the same registrations and no cache directory.
	eng  *vida.Engine
	open func() (*vida.Engine, error)
	// svc and url are the workload's own query service, when it runs one.
	svc *serve.Service
	url string

	mclTexts []string
	sqlTexts []string
	probes   []probe
	csv      rawFile
	json     rawFile
	dataset  string // the cached dataset the cache and colenc probes read
	// twin returns an engine holding the same rows as CSV and as JSON
	// and one warm aggregate over each.
	twin func(dir string) (eng *vida.Engine, csvQuery, jsonQuery string, err error)
}

// tracer splits queries into their Prepare and Run calls.
type tracer struct {
	prepare, run []time.Duration
}

func (t *tracer) query(eng *vida.Engine, text string, args ...any) (*vida.Result, error) {
	t0 := time.Now()
	p, err := eng.Prepare(text)
	t.prepare = append(t.prepare, time.Since(t0))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	r, err := p.Run(args...)
	t.run = append(t.run, time.Since(t1))
	return r, err
}

// counters are the engine counters a replay moved.
type counters struct {
	queries, fromCache, rawScans       int64
	vecStages, boxedStages             int64
	groupsBuilt, joinBuild, joinProbe  int64
	joinTableMax                       int64
	hits, misses, insertions, evicted  int64
	decoded, spillWrites, rehydrated   int64
	spillCorrupt, hotBytes, encodedEnd int64
}

// add accumulates the change between two snapshots of one engine.
func (c *counters) add(a, b core.Stats) {
	c.queries += b.Queries - a.Queries
	c.fromCache += b.QueriesFromCache - a.QueriesFromCache
	c.rawScans += b.RawScans - a.RawScans
	c.vecStages += b.KernelStagesVectorized - a.KernelStagesVectorized
	c.boxedStages += b.KernelStagesBoxed - a.KernelStagesBoxed
	c.groupsBuilt += b.GroupsBuilt - a.GroupsBuilt
	c.joinBuild += b.JoinBuildRows - a.JoinBuildRows
	c.joinProbe += b.JoinProbeRows - a.JoinProbeRows
	c.joinTableMax = max(c.joinTableMax, b.JoinTableMaxBytes)
	c.hits += b.Cache.Hits - a.Cache.Hits
	c.misses += b.Cache.Misses - a.Cache.Misses
	c.insertions += b.Cache.Insertions - a.Cache.Insertions
	c.evicted += b.Cache.Evictions - a.Cache.Evictions
	c.decoded += b.Cache.DecodedBlocks - a.Cache.DecodedBlocks
	c.spillWrites += b.Cache.SpillWrites - a.Cache.SpillWrites
	c.rehydrated += b.Cache.RehydratedBlocks - a.Cache.RehydratedBlocks
	c.spillCorrupt += b.Cache.SpillCorrupt - a.Cache.SpillCorrupt
	c.hotBytes, c.encodedEnd = b.Cache.HotBytes, b.Cache.EncodedBytes
}

// merge accumulates another replay's counters.
func (c *counters) merge(o counters) {
	c.queries += o.queries
	c.fromCache += o.fromCache
	c.rawScans += o.rawScans
	c.vecStages += o.vecStages
	c.boxedStages += o.boxedStages
	c.groupsBuilt += o.groupsBuilt
	c.joinBuild += o.joinBuild
	c.joinProbe += o.joinProbe
	c.joinTableMax = max(c.joinTableMax, o.joinTableMax)
	c.hits += o.hits
	c.misses += o.misses
	c.insertions += o.insertions
	c.evicted += o.evicted
	c.decoded += o.decoded
	c.spillWrites += o.spillWrites
	c.rehydrated += o.rehydrated
	c.spillCorrupt += o.spillCorrupt
	c.hotBytes, c.encodedEnd = o.hotBytes, o.encodedEnd
}

// traceRun makes the traced run of one workload.
func traceRun(cfg config, rep *report, env *layerEnv) error {
	// Untraced and traced replays alternate so drift hits both alike.
	var plain, traced replayResult
	tr := &tracer{}
	var tracedPool sched.Stats
	for i := 0; i < 2; i++ {
		p, err := env.replay(nil)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		plain.queries += p.queries
		plain.elapsed += p.elapsed
		before := sched.Default().StatsSnapshot()
		t, err := env.replay(tr)
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		after := sched.Default().StatsSnapshot()
		tracedPool.JobsRun += after.JobsRun - before.JobsRun
		tracedPool.TasksRun += after.TasksRun - before.TasksRun
		traced.queries += t.queries
		traced.elapsed += t.elapsed
		if i == 1 {
			traced.stats = t.stats
		}
	}
	qpsPlain := float64(plain.queries) / plain.elapsed.Seconds()
	qpsTraced := float64(traced.queries) / traced.elapsed.Seconds()
	rep.set("trace.overhead_pct", (qpsPlain/qpsTraced-1)*100, "%")
	rep.note("replay: untraced %.4g q/s, traced %.4g q/s over %d+%d queries", qpsPlain, qpsTraced, plain.queries, traced.queries)
	if len(tr.run) > 0 {
		rep.note("traced replay: Prepare p50 %.4g us, Run p50 %.4g ms over %d queries",
			us(time.Duration(median(durations(tr.prepare)))), ms(time.Duration(median(durations(tr.run)))), len(tr.run))
	}

	c := traced.stats
	q := float64(max(c.queries, 1))
	tq := float64(max(traced.queries, 1))
	rep.set("core.cache_served_ratio", ratio(float64(c.fromCache), float64(c.queries)), "ratio")
	rep.set("core.raw_scans_per_query", float64(c.rawScans)/q, "count")
	rep.set("jit.boxed_stage_ratio", ratio(float64(c.boxedStages), float64(c.boxedStages+c.vecStages)), "ratio")
	rep.set("jit.groups_built", float64(c.groupsBuilt), "count")
	rep.set("jit.join_build_rows", float64(c.joinBuild), "count")
	rep.set("jit.join_probe_rows", float64(c.joinProbe), "count")
	rep.set("jit.join_table_max_bytes", float64(c.joinTableMax), "B")
	rep.set("sched.tasks_per_query", float64(tracedPool.TasksRun)/tq, "count")
	rep.set("sched.jobs_per_query", float64(tracedPool.JobsRun)/tq, "count")
	rep.set("cache.hit_ratio", ratio(float64(c.hits), float64(c.hits+c.misses)), "ratio")
	rep.set("cache.insertions", float64(c.insertions), "count")
	rep.set("cache.evictions", float64(c.evicted), "count")
	rep.set("cache.hot_bytes", float64(c.hotBytes), "B")
	rep.set("cache.encoded_bytes", float64(c.encodedEnd), "B")
	rep.set("cache.decoded_blocks", float64(c.decoded), "count")
	rep.set("cache.spill_writes", float64(c.spillWrites), "count")
	rep.set("cache.rehydrated_blocks", float64(c.rehydrated), "count")
	rep.set("cache.spill_corrupt", float64(c.spillCorrupt), "count")
	if c.spillCorrupt != 0 {
		rep.mismatch("cache.spill_corrupt = %d, want 0", c.spillCorrupt)
	}

	steps := []func(*report, *layerEnv, string) error{
		probeFrontend, probeJIT, probeCache, probeRawCSV, probeRawJSON, probeServe,
	}
	for _, step := range steps {
		if err := step(rep, env, cfg.dataDir); err != nil {
			return err
		}
	}
	return nil
}

// timeEach runs fn reps times and returns the median duration.
func timeEach(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

// durations converts durations to float nanoseconds for median.
func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeFrontend times the frontend layers on the workload's texts:
// mcl parse, type-check and normalize, algebra translation, the
// optimizer, sqlfront, and Engine.Prepare on an empty plan cache.
func probeFrontend(rep *report, env *layerEnv, _ string) error {
	types := map[string]*sdg.Type{}
	sources := map[string]bool{}
	for _, name := range env.eng.Sources() {
		sources[name] = true
		desc, ok := env.eng.Internal().Description(name)
		if !ok || desc.Schema == nil {
			types[name] = sdg.Unknown
			continue
		}
		types[name] = sdg.Bag(desc.IterationType())
	}
	tenv := mcl.NewTypeEnv(types)
	var parse, check, norm, trans, opt []float64
	const reps = 3
	for _, text := range env.mclTexts {
		var expr, n mcl.Expr
		var plan *algebra.Reduce
		d, err := timeEach(reps, func() (err error) { expr, err = mcl.Parse(text); return })
		if err != nil {
			return fmt.Errorf("mcl.Parse %q: %w", text, err)
		}
		parse = append(parse, us(d))
		d, err = timeEach(reps, func() error { _, err := mcl.Check(expr, tenv); return err })
		if err != nil {
			return fmt.Errorf("mcl.Check %q: %w", text, err)
		}
		check = append(check, us(d))
		d, _ = timeEach(reps, func() error { n = mcl.Normalize(expr); return nil })
		norm = append(norm, us(d))
		d, err = timeEach(reps, func() (err error) { plan, err = algebra.Translate(n, sources); return })
		if err != nil {
			return fmt.Errorf("algebra.Translate %q: %w", text, err)
		}
		trans = append(trans, us(d))
		d, _ = timeEach(reps, func() error { optimizer.Optimize(plan, &optimizer.StaticCostModel{}); return nil })
		opt = append(opt, us(d))
	}
	rep.set("mcl.parse_us", median(parse), "us")
	rep.set("mcl.check_us", median(check), "us")
	rep.set("mcl.normalize_us", median(norm), "us")
	rep.set("algebra.translate_us", median(trans), "us")
	rep.set("optimizer.optimize_us", median(opt), "us")

	var sqlT []float64
	for _, text := range env.sqlTexts {
		d, err := timeEach(reps, func() error { _, err := sqlfront.Translate(text); return err })
		if err != nil {
			return fmt.Errorf("sqlfront.Translate %q: %w", text, err)
		}
		sqlT = append(sqlT, us(d))
	}
	rep.set("sqlfront.translate_us", median(sqlT), "us")

	var prep []float64
	for i := 0; i < 2; i++ {
		eng, err := env.open()
		if err != nil {
			return err
		}
		for _, text := range env.mclTexts {
			t0 := time.Now()
			_, err := eng.Prepare(text)
			prep = append(prep, us(time.Since(t0)))
			if err != nil {
				eng.Close()
				return fmt.Errorf("Prepare %q: %w", text, err)
			}
		}
		eng.Close()
	}
	rep.set("core.prepare_us", median(prep), "us")
	return nil
}

// probeJIT runs each warm probe query through Prepared.Run, one client,
// and reports the median run time and allocations per run.
func probeJIT(rep *report, env *layerEnv, _ string) error {
	const reps = 5
	var runs, allocs []float64
	byClass := map[string][]float64{}
	var classes []string
	for _, p := range env.probes {
		text := p.text
		if p.sql {
			comp, err := sqlfront.Translate(text)
			if err != nil {
				return err
			}
			text = comp.String()
		}
		prep, err := env.eng.Prepare(text)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.class, err)
		}
		for i := 0; i < reps; i++ {
			meter := startAllocs()
			t0 := time.Now()
			_, err := prep.Run(p.args...)
			d := ms(time.Since(t0))
			m, _ := meter.since()
			if err != nil {
				return fmt.Errorf("probe %s: %w", p.class, err)
			}
			runs = append(runs, d)
			allocs = append(allocs, m)
			if _, ok := byClass[p.class]; !ok {
				classes = append(classes, p.class)
			}
			byClass[p.class] = append(byClass[p.class], d)
		}
	}
	rep.set("jit.run_ms", median(runs), "ms")
	rep.set("jit.allocs_per_query", median(allocs), "count")
	if len(classes) > 1 {
		for _, c := range classes {
			rep.note("jit.run_ms.%s %.4g ms", c, median(byClass[c]))
		}
	}
	return nil
}

// probeCache scans the warm cache entry, encodes and decodes it with
// colenc, and spills and rehydrates it through a fresh cache manager.
func probeCache(rep *report, env *layerEnv, dir string) error {
	e, ok := env.eng.Internal().Caches().Peek(env.dataset, cache.LayoutColumns)
	if !ok {
		return fmt.Errorf("no columnar cache entry for %s", env.dataset)
	}
	cols := e.Cols
	if e.Enc != nil {
		var err error
		if cols, err = e.Enc.DecodeAll(); err != nil {
			return err
		}
	}
	fields := make([]string, 0, len(cols))
	var flat int64
	for name, c := range cols {
		fields = append(fields, name)
		flat += c.SizeBytes()
	}
	sort.Strings(fields)
	src := &cache.ColumnsSource{Entry: e, Dataset: env.dataset}
	d, err := timeEach(5, func() error {
		return src.IterateBatches(fields, vec.DefaultBatchSize, func(*vec.Batch) error { return nil })
	})
	if err != nil {
		return fmt.Errorf("cache scan: %w", err)
	}
	rep.set("cache.columns_scan_ms", ms(d), "ms")

	var tab *colenc.Table
	d, err = timeEach(3, func() (err error) { tab, err = colenc.EncodeColumns(cols, e.N); return })
	if err != nil {
		return fmt.Errorf("colenc encode: %w", err)
	}
	rep.set("colenc.encode_ms", ms(d), "ms")
	rep.set("colenc.encoded_over_flat", float64(tab.SizeBytes())/float64(flat), "ratio")
	d, err = timeEach(3, func() error {
		for _, c := range tab.Cols {
			var dst vec.Col
			for bi := range c.Blocks {
				if err := c.DecodeBlock(bi, &dst); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("colenc decode: %w", err)
	}
	rep.set("colenc.decode_mb_per_s", float64(flat)/1e6/d.Seconds(), "MB/s")

	spill := filepath.Join(dir, "probe-spill")
	m := cache.NewWithConfig(cache.Config{SpillDir: spill})
	m.SetSpillKey(env.dataset, func() string { return "probe" })
	if err := m.PutColumnVectors(env.dataset, e.N, cols); err != nil {
		return err
	}
	var blocks int
	d, _ = timeEach(5, func() error {
		blocks = cache.NewWithConfig(cache.Config{SpillDir: spill}).Rehydrate(env.dataset, "probe")
		return nil
	})
	if blocks == 0 {
		return fmt.Errorf("rehydrate probe found no spilled blocks")
	}
	rep.set("cache.rehydrate_ms", ms(d), "ms")
	return os.RemoveAll(spill)
}

// probeRawCSV scans the workload's CSV with fresh readers: a first scan
// over the touched fields (builds the positional map), then a second
// adding one field through the map.
func probeRawCSV(rep *report, env *layerEnv, _ string) error {
	f := env.csv
	typ, err := sdg.ParseSchema(f.schema)
	if err != nil {
		return err
	}
	var first, second, buildMS, builds, pmBytes []float64
	noop := func(*vec.Batch) error { return nil }
	for i := 0; i < 5; i++ {
		r, err := rawcsv.Open(sdg.DefaultDescription(f.name, sdg.FormatCSV, f.path, sdg.Bag(typ)))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := r.IterateBatches(f.fields, vec.DefaultBatchSize, noop); err != nil {
			return fmt.Errorf("rawcsv first scan: %w", err)
		}
		first = append(first, ms(time.Since(t0)))
		t1 := time.Now()
		if err := r.IterateBatches(append(append([]string(nil), f.fields...), f.extra), vec.DefaultBatchSize, noop); err != nil {
			return fmt.Errorf("rawcsv posmap scan: %w", err)
		}
		second = append(second, ms(time.Since(t1)))
		n, nanos := r.BuildStats()
		builds = append(builds, float64(n))
		buildMS = append(buildMS, float64(nanos)/1e6)
		pmBytes = append(pmBytes, float64(r.PosMap().MemoryBytes()))
	}
	rep.set("rawcsv.first_scan_ms", median(first), "ms")
	rep.set("rawcsv.posmap_scan_ms", median(second), "ms")
	rep.set("rawcsv.posmap_builds", median(builds), "count")
	rep.set("rawcsv.posmap_build_ms", median(buildMS), "ms")
	rep.set("rawcsv.posmap_bytes", median(pmBytes), "B")
	return nil
}

// probeRawJSON scans the workload's JSON with fresh readers (building
// the semi-index) and compares a warm aggregate over the same rows held
// as JSON and as CSV.
func probeRawJSON(rep *report, env *layerEnv, dir string) error {
	eng, csvQ, jsonQ, err := env.twin(dir)
	if err != nil {
		return fmt.Errorf("json twin: %w", err)
	}
	if eng != env.eng {
		defer eng.Close()
	}
	f := env.json
	var first, ix []float64
	for i := 0; i < 3; i++ {
		r, err := rawjson.Open(sdg.DefaultDescription(f.name, sdg.FormatJSON, f.path, sdg.Bag(sdg.Unknown)))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := r.Iterate(f.fields, func(values.Value) error { return nil }); err != nil {
			return fmt.Errorf("rawjson first scan: %w", err)
		}
		first = append(first, ms(time.Since(t0)))
		ix = append(ix, float64(r.SemiIndex().MemoryBytes()))
	}
	rep.set("rawjson.first_scan_ms", median(first), "ms")
	rep.set("rawjson.semiindex_bytes", median(ix), "B")

	warm := func(q string) (float64, error) {
		p, err := eng.Prepare(q)
		if err != nil {
			return 0, err
		}
		if _, err := p.Run(); err != nil {
			return 0, err
		}
		d, err := timeEach(7, func() error { _, err := p.Run(); return err })
		return ms(d), err
	}
	c, err := warm(csvQ)
	if err != nil {
		return fmt.Errorf("csv twin query: %w", err)
	}
	j, err := warm(jsonQ)
	if err != nil {
		return fmt.Errorf("json twin query: %w", err)
	}
	rep.set("rawjson.warm_over_csv_x", j/c, "ratio")
	rep.note("rawjson twin: warm json %.4g ms, csv %.4g ms", j, c)
	return nil
}

// probeServe serves the warm engine over loopback HTTP with the result
// cache off and compares each probe's HTTP time with the direct service
// call; the admission and cache ratios come from the workload's own
// service when it runs one.
func probeServe(rep *report, env *layerEnv, _ string) error {
	svc := serve.NewService(env.eng, sched.Default(), serve.Config{ResultCacheEntries: -1})
	url, stop, err := startServer(svc)
	if err != nil {
		return err
	}
	defer stop()
	client := &http.Client{}
	var httpMS, directMS []float64
	for round := 0; round < 5; round++ {
		for _, p := range env.probes {
			t0 := time.Now()
			if _, err := postQuery(client, url, p); err != nil {
				return fmt.Errorf("serve probe %s: %w", p.class, err)
			}
			httpMS = append(httpMS, ms(time.Since(t0)))
			t1 := time.Now()
			if p.sql {
				_, err = svc.QuerySQL(context.Background(), p.text, p.args, 0)
			} else {
				_, err = svc.Query(context.Background(), p.text, p.args, 0)
			}
			if err != nil {
				return fmt.Errorf("serve probe %s: %w", p.class, err)
			}
			directMS = append(directMS, ms(time.Since(t1)))
		}
	}
	rep.set("serve.overhead_ms", median(httpMS)-median(directMS), "ms")

	statsSvc, statsURL := env.svc, env.url
	if statsSvc == nil {
		statsSvc, statsURL = svc, url
	}
	st := statsSvc.StatsSnapshot()
	waitSum, waitCount, err := queueWait(client, statsURL)
	if err != nil {
		return err
	}
	rep.note("serve.queue_wait_ms %.4g ms mean admission wait over %g admissions", ratio(waitSum*1000, waitCount), waitCount)
	rep.set("serve.rejected", float64(st.Rejected), "count")
	rep.set("serve.result_cache_hit_ratio", ratio(float64(st.ResultHits), float64(st.ResultHits+st.ResultMisses)), "ratio")
	rep.set("serve.prepared_cache_hit_ratio", ratio(float64(st.PreparedHits), float64(st.PreparedHits+st.PreparedMisses)), "ratio")
	return nil
}

// startServer serves svc on a loopback port; stop shuts it down and
// waits for the serving goroutine.
func startServer(svc *serve.Service) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: serve.NewServer(svc).Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// postQuery sends one probe to /sql or /query and returns the decoded
// "result" field; a non-200 status is an error.
func postQuery(client *http.Client, url string, p probe) (json.RawMessage, error) {
	body, _ := json.Marshal(map[string]any{"query": p.text, "params": p.args})
	path := "/query"
	if p.sql {
		path = "/sql"
	}
	resp, err := client.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	}
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("status %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, out.Error)
	}
	return out.Result, nil
}

// queueWait scrapes the admission-wait histogram's sum (seconds) and
// count from /metrics, which keeps the sum's full precision.
func queueWait(client *http.Client, url string) (sum, count float64, err error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "vida_serve_queue_wait_seconds_sum":
			sum, _ = strconv.ParseFloat(val, 64)
		case "vida_serve_queue_wait_seconds_count":
			count, _ = strconv.ParseFloat(val, 64)
		}
	}
	return sum, count, sc.Err()
}
