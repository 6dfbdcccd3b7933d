package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vida"
	"vida/internal/sched"
	"vida/internal/serve"
)

// warmTailP is warm-mix-http's tail percentile: a 30 s run completes
// about 800 requests, so p95 leaves about forty beyond it.
const warmTailP = 95

// warmClients is the closed-loop client count (the host's vCPUs).
const warmClients = 2

// warmSetups is how many times a run sets up; the last setup serves
// the measured phase.
const warmSetups = 4

// warmFirsts is how many first requests follow each setup, all of
// class warmFirstClass ("having"): a request of tens of milliseconds
// reads steadier on a shared host than a few-millisecond one.
const (
	warmFirsts     = 10
	warmFirstClass = 2
)

const (
	peopleSchema  = "Record(Att(id, int), Att(age, int), Att(city, string), Att(score, float), Att(income, int), Att(did, int))"
	peopleJSchema = "Record(Att(id, int), Att(age, int), Att(income, int))"
	dimSchema     = "Record(Att(id, int), Att(w, int), Att(region, string))"
)

var cityNames = []string{
	"Athens", "Berlin", "Bern", "Brno", "Cork", "Delft", "Dijon", "Espoo", "Gent", "Graz", "Krakow", "Lausanne",
	"Leuven", "Lille", "Lyon", "Malmo", "Milan", "Nice", "Oslo", "Porto", "Riga", "Tartu", "Turin", "Zurich",
}

// people is the generated People table in columns; row i has id i+1.
type people struct {
	age, income, did []int64
	city             []uint8
	score            []float64
	dimW             []int64 // Dim.w by Dim id-1
}

func genPeople(seed int64, n, dims int) *people {
	r := rand.New(rand.NewSource(seed))
	p := &people{age: make([]int64, n), income: make([]int64, n), did: make([]int64, n),
		city: make([]uint8, n), score: make([]float64, n), dimW: make([]int64, dims)}
	for i := 0; i < n; i++ {
		p.age[i] = 18 + r.Int63n(73)
		p.city[i] = uint8(r.Intn(len(cityNames)))
		p.score[i] = float64(r.Int63n(100000)) / 100
		p.income[i] = r.Int63n(1_000_000)
		p.did[i] = 1 + r.Int63n(int64(dims))
	}
	for i := range p.dimW {
		p.dimW[i] = r.Int63n(100)
	}
	return p
}

// write writes People as CSV and as newline-delimited JSON (id, age,
// income), and Dim as CSV.
func (p *people) write(csvPath, jsonPath, dimPath string) error {
	var b []byte
	b = append(b, "id,age,city,score,income,did\n"...)
	for i := range p.age {
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, p.age[i], 10)
		b = append(b, ',')
		b = append(b, cityNames[p.city[i]]...)
		b = append(b, ',')
		b = strconv.AppendFloat(b, p.score[i], 'f', 2, 64)
		b = append(b, ',')
		b = strconv.AppendInt(b, p.income[i], 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, p.did[i], 10)
		b = append(b, '\n')
	}
	if err := os.WriteFile(csvPath, b, 0o644); err != nil {
		return err
	}
	b = b[:0]
	for i := range p.age {
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `,"age":`...)
		b = strconv.AppendInt(b, p.age[i], 10)
		b = append(b, `,"income":`...)
		b = strconv.AppendInt(b, p.income[i], 10)
		b = append(b, "}\n"...)
	}
	if err := os.WriteFile(jsonPath, b, 0o644); err != nil {
		return err
	}
	b = append(b[:0], "id,w,region\n"...)
	for i, w := range p.dimW {
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, w, 10)
		b = append(b, ",r"...)
		b = strconv.AppendInt(b, int64(i%8), 10)
		b = append(b, '\n')
	}
	return os.WriteFile(dimPath, b, 0o644)
}

// warmClass is one query class of the warm mix. Its single bind
// parameter comes from a domain of at least 100k values, so the
// service's result cache almost never hits.
type warmClass struct {
	name   string
	sql    string
	domain [2]int64 // parameter range [lo, hi)
}

var warmClasses = []warmClass{
	{"agg", `SELECT AVG(p.id * 2 + p.age) FROM People p WHERE p.income > $1`, [2]int64{0, 900_000}},
	{"grouped", `SELECT p.city, SUM(p.score) AS s FROM People p WHERE p.income > $1 GROUP BY p.city`, [2]int64{0, 900_000}},
	{"having", `SELECT p.age, COUNT(*) AS n, AVG(p.score) AS a FROM People p WHERE p.income < $1
		GROUP BY p.age HAVING COUNT(*) > 100 ORDER BY a DESC LIMIT 10`, [2]int64{300_000, 1_000_000}},
	{"topk", `SELECT p.id, p.score FROM People p WHERE p.income > $1 ORDER BY p.score DESC, p.id LIMIT 10`, [2]int64{0, 900_000}},
	{"proj1k", `SELECT p.id, p.age FROM People p WHERE p.id >= $1 AND p.id < $1 + 1000`, [2]int64{1, 299_001}},
	{"json_agg", `SELECT AVG(p.id * 2 + p.age) FROM PeopleJ p WHERE p.income > $1`, [2]int64{0, 900_000}},
	{"join", `SELECT SUM(d.w) FROM People p, Dim d WHERE p.did = d.id AND p.income > $1`, [2]int64{0, 900_000}},
}

// warmOp is one request of the seeded sequence.
type warmOp struct {
	class int
	param int64
}

// warmSequence draws n requests: each block of len(warmClasses) holds
// every class once in a seeded order, so the classes run at equal
// counts. Each class walks its parameter domain along a golden-ratio
// sequence from a seeded start, so every run covers the domain evenly
// and runs differ in their exact values, not in how selective they are.
func warmSequence(seed int64, n int) []warmOp {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	pos := make([]float64, len(warmClasses))
	for c := range pos {
		pos[c] = r.Float64()
	}
	ops := make([]warmOp, 0, n)
	for len(ops) < n {
		for _, c := range r.Perm(len(warmClasses)) {
			d := warmClasses[c].domain
			pos[c] = math.Mod(pos[c]+0.6180339887498949, 1)
			ops = append(ops, warmOp{class: c, param: d[0] + int64(pos[c]*float64(d[1]-d[0]))})
		}
	}
	return ops[:n]
}

// warmMix is the warm-mix-http workload: a warmed engine behind an
// in-process query server, driven by closed-loop keep-alive clients.
type warmMix struct {
	rows                       int
	data                       *people
	csvPath, jsonPath, dimPath string
	rawBytes                   int64
	ops                        []warmOp
	firsts                     []warmOp // the first requests after each setup
}

func newWarmMix(cfg config) (*warmMix, error) {
	w := &warmMix{rows: int(300_000 * cfg.scale)}
	dims := max(w.rows/5, 10)
	w.data = genPeople(cfg.seed, w.rows, dims)
	w.csvPath = filepath.Join(cfg.dataDir, "people.csv")
	w.jsonPath = filepath.Join(cfg.dataDir, "people.json")
	w.dimPath = filepath.Join(cfg.dataDir, "dim.csv")
	if err := w.data.write(w.csvPath, w.jsonPath, w.dimPath); err != nil {
		return nil, err
	}
	for _, p := range []string{w.csvPath, w.jsonPath, w.dimPath} {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		w.rawBytes += st.Size()
	}
	if cfg.corruptOracle {
		w.data.age[0]++
	}
	w.ops = warmSequence(cfg.seed, 1<<16)
	// The first requests after each setup are of one class, with
	// parameters that walk its domain like the mix's own.
	r := rand.New(rand.NewSource(cfg.seed ^ 0xf157))
	pos, d := r.Float64(), warmClasses[warmFirstClass].domain
	for j := 0; j < warmSetups*warmFirsts; j++ {
		pos = math.Mod(pos+0.6180339887498949, 1)
		w.firsts = append(w.firsts, warmOp{class: warmFirstClass, param: d[0] + int64(pos*float64(d[1]-d[0]))})
	}
	for i := range w.ops {
		if warmClasses[w.ops[i].class].name == "proj1k" {
			w.ops[i].param = 1 + w.ops[i].param%int64(max(w.rows-999, 1))
		}
	}
	return w, nil
}

func (w *warmMix) open() (*vida.Engine, error) {
	eng := vida.New()
	for _, reg := range []func() error{
		func() error { return eng.RegisterCSV("People", w.csvPath, peopleSchema, nil) },
		func() error { return eng.RegisterJSON("PeopleJ", w.jsonPath, peopleJSchema) },
		func() error { return eng.RegisterCSV("Dim", w.dimPath, dimSchema, nil) },
	} {
		if err := reg(); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return eng, nil
}

// warmServer is one set-up engine, service and HTTP server.
type warmServer struct {
	eng    *vida.Engine
	svc    *serve.Service
	url    string
	stop   func()
	client *http.Client
}

func (s *warmServer) close() {
	s.stop()
	s.client.CloseIdleConnections()
	s.eng.Close()
}

// setup builds the engine and server and makes the warm-up pass: one
// request per class, which touches every raw file the mix reads.
func (w *warmMix) setup() (*warmServer, error) {
	eng, err := w.open()
	if err != nil {
		return nil, err
	}
	svc := serve.NewService(eng, sched.Default(), serve.Config{})
	url, stop, err := startServer(svc)
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &warmServer{eng: eng, svc: svc, url: url, stop: stop, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: warmClients, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	for c := range warmClasses {
		d := warmClasses[c].domain
		if _, err := s.post(warmOp{class: c, param: d[0]}); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", warmClasses[c].name, err)
		}
	}
	return s, nil
}

// post sends one request and returns the response body; a status other
// than 200 is an error.
func (s *warmServer) post(op warmOp) ([]byte, error) {
	body := fmt.Appendf(nil, `{"query":%q,"params":[%d]}`, warmClasses[op.class].sql, op.param)
	resp, err := s.client.Post(s.url+"/sql", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// warmSample is one completed request, kept for the oracle check.
type warmSample struct {
	op   warmOp
	lat  time.Duration
	body []byte
	err  error
}

// drive runs the closed loop: clients send the sequence from start
// until the deadline or until limit requests (0: no limit) are sent.
// Traced, each request also snapshots the engine counters around it.
func (w *warmMix) drive(s *warmServer, start int, deadline time.Time, limit int, traced bool) []warmSample {
	var next atomic.Int64
	next.Store(int64(start))
	end := int64(start + limit)
	var mu sync.Mutex
	var out []warmSample
	var wg sync.WaitGroup
	for c := 0; c < warmClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []warmSample
			for {
				i := next.Add(1) - 1
				if (limit > 0 && i >= end) || (limit == 0 && time.Now().After(deadline)) {
					break
				}
				op := w.ops[int(i)%len(w.ops)]
				if traced {
					_ = s.eng.Stats()
				}
				t0 := time.Now()
				body, err := s.post(op)
				mine = append(mine, warmSample{op: op, lat: time.Since(t0), body: body, err: err})
				if traced {
					_ = s.eng.Stats()
				}
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

func runWarmMix(cfg config, rep *report) error {
	w, err := newWarmMix(cfg)
	if err != nil {
		return err
	}
	// After each setup one client sends the first requests.
	var setups, firsts []float64
	var s *warmServer
	for i := 0; i < warmSetups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		if s, err = w.setup(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		settle()
		for j := 0; j < warmFirsts; j++ {
			first := w.firsts[i*warmFirsts+j]
			t1 := time.Now()
			body, err := s.post(first)
			d := ms(time.Since(t1))
			rep.attempted++
			if err != nil {
				firsts = append(firsts, math.Inf(1))
				rep.failed++
				continue
			}
			firsts = append(firsts, d)
			w.check(rep, warmSample{op: first, body: body})
		}
	}
	defer s.close()
	if cfg.trace {
		return traceRun(cfg, rep, w.layers(s, rep))
	}

	settle()
	meter := startAllocs()
	t0 := time.Now()
	samples := w.drive(s, 0, cfg.deadline(), 0, false)
	elapsed := time.Since(t0)
	mallocs, bytes := meter.since()

	var lat latencies
	var done int64
	perClass := make([][]float64, len(warmClasses))
	for _, smp := range samples {
		rep.attempted++
		if smp.err != nil {
			rep.failed++
			lat.fail()
			continue
		}
		done++
		lat.add(smp.lat)
		perClass[smp.op.class] = append(perClass[smp.op.class], ms(smp.lat))
		w.check(rep, smp)
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("first_query_ms", median(firsts), "ms")
	lat.report(rep, warmTailP)
	rep.set("queries_per_s", float64(done)/elapsed.Seconds(), "1/s")
	reportAllocs(rep, mallocs, bytes, done)
	st := s.eng.Stats()
	rep.set("resident_bytes_per_raw_byte", float64(st.Cache.BytesUsed+st.AuxiliaryBytes)/float64(w.rawBytes), "ratio")
	for c, xs := range perClass {
		rep.note("latency_p50_ms.%s %.4g ms over %d requests", warmClasses[c].name, median(xs), len(xs))
	}
	ss := s.svc.StatsSnapshot()
	rep.note("result cache hit ratio %.4g (%d hits)", ratio(float64(ss.ResultHits), float64(ss.ResultHits+ss.ResultMisses)), ss.ResultHits)
	return nil
}

// check compares one response with the answer computed directly from
// the generated rows.
func (w *warmMix) check(rep *report, smp warmSample) {
	var resp struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(smp.body, &resp); err != nil {
		rep.mismatch("%s(%d): undecodable response: %v", warmClasses[smp.op.class].name, smp.op.param, err)
		return
	}
	if err := w.verify(smp.op, resp.Result); err != nil {
		rep.mismatch("%s(%d): %v", warmClasses[smp.op.class].name, smp.op.param, err)
	}
}

// verify checks one result against the oracle for its class.
func (w *warmMix) verify(op warmOp, result json.RawMessage) error {
	d, x := w.data, op.param
	switch warmClasses[op.class].name {
	case "agg", "json_agg":
		var sum, n float64
		for i, inc := range d.income {
			if inc > x {
				sum += float64(2*(i+1)) + float64(d.age[i])
				n++
			}
		}
		return checkFloat(result, sum/n)
	case "join":
		var sum int64
		for i, inc := range d.income {
			if inc > x {
				sum += d.dimW[d.did[i]-1]
			}
		}
		return checkFloat(result, float64(sum))
	case "grouped":
		sums := make([]float64, len(cityNames))
		seen := make([]bool, len(cityNames))
		for i, inc := range d.income {
			if inc > x {
				sums[d.city[i]] += d.score[i]
				seen[d.city[i]] = true
			}
		}
		var got []struct {
			City string  `json:"city"`
			S    float64 `json:"s"`
		}
		if err := json.Unmarshal(result, &got); err != nil {
			return err
		}
		want := 0
		for c := range cityNames {
			if seen[c] {
				want++
			}
		}
		if len(got) != want {
			return fmt.Errorf("%d groups, want %d", len(got), want)
		}
		for _, g := range got {
			c := sort.SearchStrings(cityNames, g.City)
			if c == len(cityNames) || cityNames[c] != g.City || !seen[c] || !closeTo(g.S, sums[c]) {
				return fmt.Errorf("group %q = %g", g.City, g.S)
			}
		}
		return nil
	case "having":
		n := make([]int64, 91)
		sum := make([]float64, 91)
		for i, inc := range d.income {
			if inc < x {
				n[d.age[i]]++
				sum[d.age[i]] += d.score[i]
			}
		}
		type row struct {
			Age int64   `json:"age"`
			N   int64   `json:"n"`
			A   float64 `json:"a"`
		}
		var want []row
		for age := range n {
			if n[age] > 100 {
				want = append(want, row{int64(age), n[age], sum[age] / float64(n[age])})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].A > want[j].A })
		want = want[:min(10, len(want))]
		var got []row
		if err := json.Unmarshal(result, &got); err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("%d rows, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Age != want[i].Age || got[i].N != want[i].N || !closeTo(got[i].A, want[i].A) {
				return fmt.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		return nil
	case "topk":
		type row struct {
			ID    int64   `json:"id"`
			Score float64 `json:"score"`
		}
		var want []row
		for i, inc := range d.income {
			if inc > x {
				want = append(want, row{int64(i + 1), d.score[i]})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].ID < want[j].ID
		})
		want = want[:min(10, len(want))]
		var got []row
		if err := json.Unmarshal(result, &got); err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("%d rows, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		return nil
	case "proj1k":
		var got []struct {
			ID  int64 `json:"id"`
			Age int64 `json:"age"`
		}
		if err := json.Unmarshal(result, &got); err != nil {
			return err
		}
		want := min(x+1000, int64(len(d.age))+1) - x
		if int64(len(got)) != want {
			return fmt.Errorf("%d rows, want %d", len(got), want)
		}
		seen := map[int64]bool{}
		for _, g := range got {
			if g.ID < x || g.ID >= x+1000 || g.ID > int64(len(d.age)) || seen[g.ID] || d.age[g.ID-1] != g.Age {
				return fmt.Errorf("row %+v", g)
			}
			seen[g.ID] = true
		}
		return nil
	}
	return fmt.Errorf("unknown class")
}

// closeTo compares floats with a relative tolerance: parallel folds sum
// in a different order than the oracle.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func checkFloat(result json.RawMessage, want float64) error {
	var got float64
	if err := json.Unmarshal(result, &got); err != nil {
		return err
	}
	if !closeTo(got, want) {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	return nil
}

// layers hands the traced run the warm server and the mix's texts;
// replayed responses are checked into rep like timed ones.
func (w *warmMix) layers(s *warmServer, rep *report) *layerEnv {
	env := &layerEnv{
		eng: s.eng, open: w.open, svc: s.svc, url: s.url, dataset: "People",
		csv:  rawFile{name: "People", path: w.csvPath, schema: peopleSchema, fields: []string{"age", "income"}, extra: "score"},
		json: rawFile{name: "PeopleJ", path: w.jsonPath, fields: []string{"id", "age", "income"}},
	}
	for c, cl := range warmClasses {
		env.sqlTexts = append(env.sqlTexts, cl.sql)
		comp, _ := s.eng.TranslateSQL(cl.sql)
		env.mclTexts = append(env.mclTexts, comp)
		env.probes = append(env.probes, probe{class: cl.name, text: cl.sql, sql: true, args: []any{w.ops[c].param}})
	}
	next := 0
	env.replay = func(tr *tracer) (replayResult, error) {
		const n = 70
		before := s.eng.Stats()
		t0 := time.Now()
		samples := w.drive(s, next, time.Time{}, n, tr != nil)
		res := replayResult{elapsed: time.Since(t0)}
		next += n
		res.stats.add(before, s.eng.Stats())
		for _, smp := range samples {
			rep.attempted++
			if smp.err != nil {
				rep.failed++
				return res, smp.err
			}
			w.check(rep, smp)
			res.queries++
		}
		return res, nil
	}
	env.twin = func(string) (*vida.Engine, string, string, error) {
		q := "for { p <- %s } yield avg (p.id * 2 + p.age)"
		return s.eng, fmt.Sprintf(q, "People"), fmt.Sprintf(q, "PeopleJ"), nil
	}
	return env
}
