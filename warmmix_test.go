package vida

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestWarmMixNoBoxedStages pins the typed warm path end to end: the
// perfbench warm-mix-http query classes and the refresh-restart queries,
// each with a bound $1, over typed CSV and JSON sources, compile with
// no boxed pipeline stage — no filter, aggregate head, sort key,
// grouping key, aggregate input or join key falls back to row-wise
// evaluation — and answer what a direct Go computation over the same
// data answers. Scores and values are multiples of 1/4 and 1/8, so
// every float sum is exact whatever the summation order.
func TestWarmMixNoBoxedStages(t *testing.T) {
	const n, dims, nT = 4000, 400, 3000
	r := rand.New(rand.NewSource(7))
	type person struct {
		id, age, income, did int64
		city                 string
		score                float64
	}
	cities := []string{"Bern", "Cork", "Graz", "Lyon", "Oslo", "Riga"}
	people := make([]person, n)
	dimW := make([]int64, dims)
	for i := range people {
		people[i] = person{id: int64(i + 1), age: 18 + r.Int63n(20), income: r.Int63n(1_000_000),
			did: 1 + r.Int63n(dims), city: cities[r.Intn(len(cities))], score: float64(r.Intn(4000)) / 4}
	}
	for i := range dimW {
		dimW[i] = r.Int63n(100)
	}
	tags := []string{"alpha", "bravo", "charlie", "delta"}
	ts := make([]warmTRow, nT)
	for i := range ts {
		ts[i] = warmTRow{k: r.Int63n(1_000_000), v: float64(r.Intn(80_000)) / 8, tag: tags[r.Intn(len(tags))]}
	}

	dir := t.TempDir()
	var pcsv, pjson, dcsv, tcsv strings.Builder
	pcsv.WriteString("id,age,city,score,income,did\n")
	for _, p := range people {
		fmt.Fprintf(&pcsv, "%d,%d,%s,%g,%d,%d\n", p.id, p.age, p.city, p.score, p.income, p.did)
		fmt.Fprintf(&pjson, "{\"id\":%d,\"age\":%d,\"income\":%d}\n", p.id, p.age, p.income)
	}
	dcsv.WriteString("id,w,region\n")
	for i, w := range dimW {
		fmt.Fprintf(&dcsv, "%d,%d,r%d\n", i+1, w, i%8)
	}
	tcsv.WriteString("id,k,v,tag\n")
	for i, x := range ts {
		fmt.Fprintf(&tcsv, "%d,%d,%g,%s\n", i+1, x.k, x.v, x.tag)
	}
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	e := New()
	for _, err := range []error{
		e.RegisterCSV("People", write("people.csv", pcsv.String()),
			"Record(Att(id, int), Att(age, int), Att(city, string), Att(score, float), Att(income, int), Att(did, int))", nil),
		e.RegisterJSON("PeopleJ", write("people.json", pjson.String()), "Record(Att(id, int), Att(age, int), Att(income, int))"),
		e.RegisterCSV("Dim", write("dim.csv", dcsv.String()), "Record(Att(id, int), Att(w, int), Att(region, string))", nil),
		e.RegisterCSV("T", write("t.csv", tcsv.String()), "Record(Att(id, int), Att(k, int), Att(v, float), Att(tag, string))", nil),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The direct computations render through the engine's own values, so
	// the comparison is exact.
	avg := func(sum float64, cnt int64) Value {
		if cnt == 0 {
			return Null
		}
		return NewFloat(sum / float64(cnt))
	}
	rec := func(kv ...any) string {
		var fs []Field
		for i := 0; i < len(kv); i += 2 {
			fs = append(fs, Field{Name: kv[i].(string), Val: kv[i+1].(Value)})
		}
		return groupRow(NewRecord(fs...))
	}
	type agg struct {
		sum float64
		cnt int64
	}
	cases := []struct {
		name, sql string
		param     int64
		sorted    bool // the order of the result rows is part of the answer
		want      func(x int64) []string
	}{
		{"agg", `SELECT AVG(p.id * 2 + p.age) FROM People p WHERE p.income > $1`, 400_000, true, func(x int64) []string {
			var a agg
			for _, p := range people {
				if p.income > x {
					a.sum += float64(p.id*2 + p.age)
					a.cnt++
				}
			}
			return []string{avg(a.sum, a.cnt).String()}
		}},
		{"grouped", `SELECT p.city, SUM(p.score) AS s FROM People p WHERE p.income > $1 GROUP BY p.city`, 300_000, false, func(x int64) []string {
			sums := map[string]float64{}
			for _, p := range people {
				if p.income > x {
					sums[p.city] += p.score
				}
			}
			var out []string
			for c, s := range sums {
				out = append(out, rec("city", NewString(c), "s", NewFloat(s)))
			}
			return out
		}},
		{"having", `SELECT p.age, COUNT(*) AS n, AVG(p.score) AS a FROM People p WHERE p.income < $1
			GROUP BY p.age HAVING COUNT(*) > 100 ORDER BY a DESC LIMIT 10`, 700_000, true, func(x int64) []string {
			byAge := map[int64]*agg{}
			for _, p := range people {
				if p.income < x {
					if byAge[p.age] == nil {
						byAge[p.age] = &agg{}
					}
					byAge[p.age].sum += p.score
					byAge[p.age].cnt++
				}
			}
			type g struct {
				age, n int64
				a      float64
			}
			var gs []g
			for age, a := range byAge {
				if a.cnt > 100 {
					gs = append(gs, g{age, a.cnt, a.sum / float64(a.cnt)})
				}
			}
			sort.Slice(gs, func(i, j int) bool { return gs[i].a > gs[j].a })
			var out []string
			for i := 0; i < len(gs) && i < 10; i++ {
				out = append(out, rec("age", NewInt(gs[i].age), "n", NewInt(gs[i].n), "a", NewFloat(gs[i].a)))
			}
			return out
		}},
		{"topk", `SELECT p.id, p.score FROM People p WHERE p.income > $1 ORDER BY p.score DESC, p.id LIMIT 10`, 500_000, true, func(x int64) []string {
			var sel []person
			for _, p := range people {
				if p.income > x {
					sel = append(sel, p)
				}
			}
			sort.Slice(sel, func(i, j int) bool {
				if sel[i].score != sel[j].score {
					return sel[i].score > sel[j].score
				}
				return sel[i].id < sel[j].id
			})
			var out []string
			for i := 0; i < len(sel) && i < 10; i++ {
				out = append(out, rec("id", NewInt(sel[i].id), "score", NewFloat(sel[i].score)))
			}
			return out
		}},
		{"proj1k", `SELECT p.id, p.age FROM People p WHERE p.id >= $1 AND p.id < $1 + 1000`, 1234, false, func(x int64) []string {
			var out []string
			for _, p := range people {
				if p.id >= x && p.id < x+1000 {
					out = append(out, rec("id", NewInt(p.id), "age", NewInt(p.age)))
				}
			}
			return out
		}},
		{"json_agg", `SELECT AVG(p.id * 2 + p.age) FROM PeopleJ p WHERE p.income > $1`, 600_000, true, func(x int64) []string {
			var a agg
			for _, p := range people {
				if p.income > x {
					a.sum += float64(p.id*2 + p.age)
					a.cnt++
				}
			}
			return []string{avg(a.sum, a.cnt).String()}
		}},
		{"join", `SELECT SUM(d.w) FROM People p, Dim d WHERE p.did = d.id AND p.income > $1`, 200_000, true, func(x int64) []string {
			var s int64
			for _, p := range people {
				if p.income > x {
					s += dimW[p.did-1]
				}
			}
			return []string{NewInt(s).String()}
		}},
		{"retouch", `SELECT t.tag, AVG(t.v) AS a FROM T t WHERE t.k > $1 GROUP BY t.tag`, 250_000, false, func(x int64) []string {
			return tagAvgs(ts, func(k int64) bool { return k > x }, rec, avg)
		}},
		{"refresh_agg", `SELECT AVG(t.v) FROM T t WHERE t.k > $1`, 650_000, true, func(x int64) []string {
			var a agg
			for _, r := range ts {
				if r.k > x {
					a.sum += r.v
					a.cnt++
				}
			}
			return []string{avg(a.sum, a.cnt).String()}
		}},
		{"count", `SELECT COUNT(*) FROM T t WHERE t.k < $1`, 450_000, true, func(x int64) []string {
			var c int64
			for _, r := range ts {
				if r.k < x {
					c++
				}
			}
			return []string{NewInt(c).String()}
		}},
		{"refresh_topk", `SELECT t.k, t.v FROM T t WHERE t.k > $1 ORDER BY t.v DESC, t.k LIMIT 5`, 100_000, true, func(x int64) []string {
			var sel []warmTRow
			for _, r := range ts {
				if r.k > x {
					sel = append(sel, r)
				}
			}
			sort.Slice(sel, func(i, j int) bool {
				if sel[i].v != sel[j].v {
					return sel[i].v > sel[j].v
				}
				return sel[i].k < sel[j].k
			})
			var out []string
			for i := 0; i < len(sel) && i < 5; i++ {
				out = append(out, rec("k", NewInt(sel[i].k), "v", NewFloat(sel[i].v)))
			}
			return out
		}},
		{"refresh_grouped", `SELECT t.tag, AVG(t.v) AS a FROM T t WHERE t.k < $1 GROUP BY t.tag`, 800_000, false, func(x int64) []string {
			return tagAvgs(ts, func(k int64) bool { return k < x }, rec, avg)
		}},
	}

	// Warm every source: the measured runs take the warm (cached) path.
	for _, q := range []string{
		`SELECT COUNT(*) FROM People p`, `SELECT COUNT(*) FROM PeopleJ p`,
		`SELECT COUNT(*) FROM Dim d`, `SELECT COUNT(*) FROM T t`,
	} {
		if _, err := e.QuerySQL(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range cases {
		before := e.Stats().KernelStagesBoxed
		res, err := e.QuerySQL(tc.sql, tc.param)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if boxed := e.Stats().KernelStagesBoxed - before; boxed != 0 {
			t.Errorf("%s: %d boxed pipeline stages, want 0", tc.name, boxed)
		}
		var got []string
		if rows := res.Rows(); res.Value().IsCollection() {
			for _, row := range rows {
				got = append(got, groupRow(row))
			}
		} else {
			got = []string{res.Value().String()}
		}
		want := tc.want(tc.param)
		if !tc.sorted {
			sort.Strings(got)
			sort.Strings(want)
		}
		if len(want) == 0 {
			t.Fatalf("%s: the direct computation is empty; pick another $1", tc.name)
		}
		if strings.Join(got, "; ") != strings.Join(want, "; ") {
			t.Errorf("%s = %q\nwant %q", tc.name, got, want)
		}
	}
}

// warmTRow is one row of the refresh-restart table T.
type warmTRow struct {
	k   int64
	v   float64
	tag string
}

// tagAvgs is the direct computation of `SELECT t.tag, AVG(t.v) AS a ...
// GROUP BY t.tag` over the rows whose k passes keep.
func tagAvgs(rows []warmTRow, keep func(int64) bool, rec func(...any) string, avg func(float64, int64) Value) []string {
	sums := map[string]float64{}
	cnts := map[string]int64{}
	for _, r := range rows {
		if keep(r.k) {
			sums[r.tag] += r.v
			cnts[r.tag]++
		}
	}
	var out []string
	for tag, s := range sums {
		out = append(out, rec("tag", NewString(tag), "a", avg(s, cnts[tag])))
	}
	return out
}
