package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"vida"
	"vida/internal/core"
	"vida/internal/values"
)

// refreshTailP is refresh-restart's tail percentile: a 30 s run makes
// about 470 queries, so p95 leaves over twenty beyond it. About one
// query in eight is a re-touch after a rewrite, so the tail reads
// re-touches.
const refreshTailP = 95

// restartEvery is how many rewrite rounds pass between engine restarts.
const restartEvery = 2

// warmRepeats is how many times each warm query runs per round.
const warmRepeats = 2

const tableSchema = "Record(Att(id, int), Att(k, int), Att(v, float), Att(tag, string))"

var tagNames = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
	"india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa"}

// refreshQueries are the round's queries: the first is the re-touch
// query run right after each Refresh and after each restart; the rest
// are warm. Each binds $1 to a seeded value in [0, 1e6).
var refreshQueries = []struct{ name, sql string }{
	{"retouch", `SELECT t.tag, AVG(t.v) AS a FROM T t WHERE t.k > $1 GROUP BY t.tag`},
	{"agg", `SELECT AVG(t.v) FROM T t WHERE t.k > $1`},
	{"count", `SELECT COUNT(*) FROM T t WHERE t.k < $1`},
	{"topk", `SELECT t.k, t.v FROM T t WHERE t.k > $1 ORDER BY t.v DESC, t.k LIMIT 5`},
	{"grouped", `SELECT t.tag, AVG(t.v) AS a FROM T t WHERE t.k < $1 GROUP BY t.tag`},
}

// table is one generation of the rewritten file; row i has id i+1.
type table struct {
	k   []int64
	v   []float64
	tag []uint8
}

func genTable(seed int64, round, n int) *table {
	r := rand.New(rand.NewSource(seed*7919 + int64(round)))
	t := &table{k: make([]int64, n), v: make([]float64, n), tag: make([]uint8, n)}
	for i := 0; i < n; i++ {
		t.k[i] = r.Int63n(1_000_000)
		t.v[i] = float64(r.Int63n(100_000_000)) / 1000
		t.tag[i] = uint8(r.Intn(len(tagNames)))
	}
	return t
}

// write replaces path atomically: a temp file, then a rename. The file's
// mtime and size are whatever the write gives them. The temp file is
// synced first, so its writeback does not land in the timed phase.
func (t *table) write(path string) error {
	b := make([]byte, 0, len(t.k)*32)
	b = append(b, "id,k,v,tag\n"...)
	for i := range t.k {
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, t.k[i], 10)
		b = append(b, ',')
		b = strconv.AppendFloat(b, t.v[i], 'f', 3, 64)
		b = append(b, ',')
		b = append(b, tagNames[t.tag[i]]...)
		b = append(b, '\n')
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// answer is the oracle's answer to refresh query q with parameter x.
func (t *table) answer(q int, x int64) values.Value {
	switch refreshQueries[q].name {
	case "agg":
		var sum, n float64
		for i, k := range t.k {
			if k > x {
				sum += t.v[i]
				n++
			}
		}
		return values.NewFloat(sum / n)
	case "count":
		var n int64
		for _, k := range t.k {
			if k < x {
				n++
			}
		}
		return values.NewInt(n)
	case "topk":
		var idx []int
		for i, k := range t.k {
			if k > x {
				idx = append(idx, i)
			}
		}
		sort.Slice(idx, func(a, b int) bool {
			i, j := idx[a], idx[b]
			if t.v[i] != t.v[j] {
				return t.v[i] > t.v[j]
			}
			return t.k[i] < t.k[j]
		})
		var rows []values.Value
		for _, i := range idx[:min(5, len(idx))] {
			rows = append(rows, values.NewRecord(
				values.Field{Name: "k", Val: values.NewInt(t.k[i])},
				values.Field{Name: "v", Val: values.NewFloat(t.v[i])}))
		}
		return values.NewBag(rows...)
	}
	// retouch and grouped: AVG(v) per tag over k > x or k < x.
	above := refreshQueries[q].name == "retouch"
	sum := make([]float64, len(tagNames))
	n := make([]float64, len(tagNames))
	for i, k := range t.k {
		if (above && k > x) || (!above && k < x) {
			sum[t.tag[i]] += t.v[i]
			n[t.tag[i]]++
		}
	}
	var rows []values.Value
	for g := range tagNames {
		if n[g] > 0 {
			rows = append(rows, values.NewRecord(
				values.Field{Name: "tag", Val: values.NewString(tagNames[g])},
				values.Field{Name: "a", Val: values.NewFloat(sum[g] / n[g])}))
		}
	}
	return values.NewBag(rows...)
}

// refreshRestart is the refresh-restart workload: a file rewritten
// between reads, Refresh after each rewrite, and periodic restarts that
// rehydrate the cache from its spill directory.
type refreshRestart struct {
	seed     int64
	rows     int
	corrupt  bool // the oracle sees a perturbed table (self-test)
	path     string
	cacheDir string
	texts    []string // comprehension form of refreshQueries
	data     *table
	round    int
	eng      *vida.Engine
	pos      []float64 // per query: position of its parameter walk
}

func newRefresh(cfg config) (*refreshRestart, error) {
	r := &refreshRestart{seed: cfg.seed, rows: int(300_000 * cfg.scale),
		path: filepath.Join(cfg.dataDir, "table.csv"), cacheDir: filepath.Join(cfg.dataDir, "cache"),
		corrupt: cfg.corruptOracle}
	seeds := rand.New(rand.NewSource(cfg.seed ^ 0x7e57))
	for range refreshQueries {
		r.pos = append(r.pos, seeds.Float64())
	}
	r.data = genTable(r.seed, 0, r.rows)
	if err := r.data.write(r.path); err != nil {
		return nil, err
	}
	eng := vida.New()
	defer eng.Close()
	for _, q := range refreshQueries {
		text, err := eng.TranslateSQL(q.sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		r.texts = append(r.texts, text)
	}
	return r, nil
}

// open is the engine's setup: registration on the persistent cache
// directory, which rehydrates spilled blocks and positional maps.
func (r *refreshRestart) open() (*vida.Engine, error) {
	eng := vida.New(vida.WithCacheDir(r.cacheDir))
	if err := eng.RegisterCSV("T", r.path, tableSchema, nil); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// refreshOp is one timed engine operation of a round, kept for the
// oracle check.
type refreshOp struct {
	q      int
	param  int64
	lat    time.Duration
	result *vida.Result
	err    error
	data   *table
}

// query runs refresh query q, timed, through tr when tracing.
func (r *refreshRestart) query(q int, tr *tracer) refreshOp {
	// Each query walks [0, 1e6) along a golden-ratio sequence from a
	// seeded start: runs differ in values, not in selectivity mix.
	r.pos[q] = math.Mod(r.pos[q]+0.6180339887498949, 1)
	x := int64(r.pos[q] * 1_000_000)
	op := refreshOp{q: q, param: x, data: r.data}
	t0 := time.Now()
	if tr != nil {
		op.result, op.err = tr.query(r.eng, r.texts[q], x)
	} else {
		op.result, op.err = r.eng.Query(r.texts[q], x)
	}
	op.lat = time.Since(t0)
	return op
}

// roundResult is what one rewrite round did.
type roundResult struct {
	refresh time.Duration
	ops     []refreshOp // re-touch first, then the warm queries
	mallocs float64
	bytes   float64
	// restart is set when the round ended with a restart: its setup
	// time and first query.
	restart time.Duration
	first   *refreshOp
	stats   counters
	// resident is (cache + auxiliary bytes) ÷ raw bytes after the
	// round's queries, before any restart.
	resident float64
}

// roundTrip makes one round: rewrite (untimed), Refresh, the re-touch
// query and the warm queries, then every restartEvery rounds a restart
// and its first query.
func (r *refreshRestart) roundTrip(tr *tracer) (*roundResult, error) {
	r.round++
	r.data = genTable(r.seed, r.round, r.rows)
	if err := r.data.write(r.path); err != nil {
		return nil, err
	}
	if r.corrupt {
		r.data.v[0] = -1
	}
	settle()
	res := &roundResult{}
	before := r.eng.Stats()
	meter := startAllocs()
	t0 := time.Now()
	if err := r.eng.Refresh(); err != nil {
		return nil, fmt.Errorf("refresh: %w", err)
	}
	res.refresh = time.Since(t0)
	res.ops = append(res.ops, r.query(0, tr))
	for i := 0; i < warmRepeats; i++ {
		for q := 1; q < len(refreshQueries); q++ {
			res.ops = append(res.ops, r.query(q, tr))
		}
	}
	res.mallocs, res.bytes = meter.since()
	after := r.eng.Stats()
	res.stats.add(before, after)
	res.resident = float64(after.Cache.BytesUsed+after.AuxiliaryBytes) / float64(fileSize(r.path))
	if r.round%restartEvery != 0 {
		return res, nil
	}
	if err := r.eng.Close(); err != nil {
		return nil, err
	}
	settle()
	meter = startAllocs()
	t1 := time.Now()
	eng, err := r.open()
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	res.restart = time.Since(t1)
	r.eng = eng
	first := r.query(0, tr)
	res.first = &first
	m, b := meter.since()
	res.mallocs += m
	res.bytes += b
	res.stats.add(core.Stats{}, r.eng.Stats())
	return res, nil
}

// check verifies one operation against the oracle.
func checkRefreshOp(rep *report, op refreshOp) {
	rep.attempted++
	if op.err != nil {
		rep.failed++
		return
	}
	if err := agree(normalizeResult(op.result), op.data.answer(op.q, op.param)); err != nil {
		rep.mismatch("%s(%d): %v", refreshQueries[op.q].name, op.param, err)
		return
	}
	// The bag comparison ignores order; ORDER BY must hold too.
	if refreshQueries[op.q].name == "topk" {
		rows := op.result.Rows()
		for i := 1; i < len(rows); i++ {
			if rows[i].Field("v").Float() > rows[i-1].Field("v").Float() {
				rep.mismatch("topk(%d): row %d out of order", op.param, i)
				return
			}
		}
	}
}

func runRefresh(cfg config, rep *report) error {
	r, err := newRefresh(cfg)
	if err != nil {
		return err
	}
	// The initial cold touch spills the first generation.
	if r.eng, err = r.open(); err != nil {
		return err
	}
	defer func() { r.eng.Close() }()
	checkRefreshOp(rep, r.query(0, nil))
	if cfg.trace {
		return traceRun(cfg, rep, r.layers(rep))
	}

	var lat latencies
	var setups, firsts, retouch, refreshMS, resident []float64
	var done int64
	var busy time.Duration
	var mallocs, bytes float64
	record := func(op refreshOp) {
		checkRefreshOp(rep, op)
		if op.err != nil {
			lat.fail()
			return
		}
		lat.add(op.lat)
		busy += op.lat
		done++
	}
	end := cfg.deadline()
	for len(setups) < 3 || time.Now().Before(end) {
		res, err := r.roundTrip(nil)
		if err != nil {
			return err
		}
		mallocs += res.mallocs
		bytes += res.bytes
		refreshMS = append(refreshMS, ms(res.refresh))
		resident = append(resident, res.resident)
		retouch = append(retouch, ms(res.ops[0].lat))
		for _, op := range res.ops {
			record(op)
		}
		if res.first != nil {
			setups = append(setups, res.restart.Seconds())
			first := math.Inf(1) // a failed first query misses any limit
			if res.first.err == nil {
				first = ms(res.first.lat)
			}
			firsts = append(firsts, first)
			record(*res.first)
		}
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("first_query_ms", median(firsts), "ms")
	lat.report(rep, refreshTailP)
	rep.set("queries_per_s", float64(done)/busy.Seconds(), "1/s")
	reportAllocs(rep, mallocs, bytes, done)
	rep.set("resident_bytes_per_raw_byte", median(resident), "ratio")
	rep.note("rounds=%d restarts=%d", r.round, len(setups))
	rep.note("retouch_query_ms %.4g ms (median re-touch after rewrite + Refresh; Refresh itself %.4g ms)", median(retouch), median(refreshMS))
	return nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// layers hands the traced run the current engine and the round texts;
// replayed answers are checked into rep like timed ones.
func (r *refreshRestart) layers(rep *report) *layerEnv {
	env := &layerEnv{
		eng: r.eng, dataset: "T", mclTexts: r.texts,
		open: func() (*vida.Engine, error) {
			eng := vida.New()
			return eng, eng.RegisterCSV("T", r.path, tableSchema, nil)
		},
		csv:  rawFile{name: "T", path: r.path, schema: tableSchema, fields: []string{"k", "v"}, extra: "tag"},
		json: rawFile{name: "Twin", fields: []string{"id", "k"}},
	}
	for q, rq := range refreshQueries {
		env.sqlTexts = append(env.sqlTexts, rq.sql)
		env.probes = append(env.probes, probe{class: rq.name, text: r.texts[q], args: []any{int64(500_000)}})
	}
	env.replay = func(tr *tracer) (replayResult, error) {
		var res replayResult
		for i := 0; i < restartEvery; i++ {
			rr, err := r.roundTrip(tr)
			if err != nil {
				return res, err
			}
			ops := rr.ops
			if rr.first != nil {
				ops = append(ops, *rr.first)
			}
			for _, op := range ops {
				checkRefreshOp(rep, op)
				if op.err != nil {
					return res, op.err
				}
				res.queries++
				res.elapsed += op.lat
			}
			res.stats.merge(rr.stats)
		}
		env.eng = r.eng
		return res, nil
	}
	env.twin = func(dir string) (*vida.Engine, string, string, error) {
		ids := make([]int64, len(r.data.k))
		for i := range ids {
			ids[i] = int64(i + 1)
		}
		path := filepath.Join(dir, "table_twin.json")
		if err := writeIntPairsJSON(path, "k", ids, r.data.k); err != nil {
			return nil, "", "", err
		}
		env.json.path = path // the rawjson scan probe reads the same copy
		return twinEngine("T", r.path, tableSchema, path, "k")
	}
	return env
}
