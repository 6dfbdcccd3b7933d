package jit

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/rawcsv"
	"vida/internal/sdg"
	"vida/internal/trace"
	"vida/internal/values"
)

// csvCatalog registers one CSV file of n rows (id int, score int, bmi
// float) and returns the catalog plus the reader.
func csvCatalog(t *testing.T, n int) (*schemaCat, *rawcsv.Reader) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("id,score,bmi\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d.5\n", i, i%7, 20+i%11)
	}
	path := filepath.Join(t.TempDir(), "rows.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "score", Type: sdg.Int},
		sdg.Attr{Name: "bmi", Type: sdg.Float},
	))
	desc := sdg.DefaultDescription("R", sdg.FormatCSV, path, schema)
	rd, err := rawcsv.Open(desc)
	if err != nil {
		t.Fatal(err)
	}
	return &schemaCat{
		MapCatalog: algebra.MapCatalog{"R": rd},
		descs:      map[string]*sdg.Description{"R": desc},
	}, rd
}

// TestBatchBoundaryCorrectness sweeps row counts around the batch size —
// empty sources, single rows, exact multiples, one-over — against the
// reference executor, on both the cold (tokenizing) and warm (positional
// map) scan paths.
func TestBatchBoundaryCorrectness(t *testing.T) {
	queries := []string{
		`for { r <- R } yield count r`,
		`for { r <- R, r.score > 3 } yield sum r.id`,
		`for { r <- R, r.score > 3 } yield avg r.bmi`,
		`for { r <- R } yield list r.id`,
		`for { r <- R, r.score = 2 } yield bag (i := r.id)`,
	}
	for _, n := range []int{0, 1, 15, 16, 17, 31, 33, 64} {
		cat, _ := csvCatalog(t, n)
		for _, q := range queries {
			plan := planFor2(t, q, cat)
			want, err := algebra.Reference{}.Run(plan, cat)
			if err != nil {
				t.Fatalf("n=%d ref %q: %v", n, q, err)
			}
			ex := Executor{Opts: Options{BatchSize: 16}}
			for pass := 0; pass < 2; pass++ { // cold, then posmap-backed
				got, err := ex.Run(plan, cat)
				if err != nil {
					t.Fatalf("n=%d pass=%d jit %q: %v", n, pass, q, err)
				}
				if !values.Equal(got, want) {
					t.Fatalf("n=%d pass=%d %q diverged:\njit: %v\nref: %v", n, pass, q, got, want)
				}
			}
		}
	}
}

// TestSingleRowFile pins the smallest non-empty source.
func TestSingleRowFile(t *testing.T) {
	cat, _ := csvCatalog(t, 1)
	plan := planFor2(t, `for { r <- R } yield sum r.id`, cat)
	got, err := Executor{}.Run(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 0 {
		t.Fatalf("sum of single row ids = %v, want 0", got)
	}
}

// csvJoinPlan is an equi-join of R with itself (the build side filtered),
// yielding (a := x.id, b := y.score) under monoid m. keyErr makes the
// build-side key expression fail on every row.
func csvJoinPlan(m string, keyErr bool) *algebra.Reduce {
	rkey := "y.id"
	if keyErr {
		rkey = "y.id.x"
	}
	return &algebra.Reduce{
		M:    mustMonoid(m),
		Head: mcl.MustParse("(a := x.id, b := y.score)"),
		Input: &algebra.Join{
			L:  &algebra.Scan{Source: "R", Var: "x", Fields: []string{"id", "score"}},
			R:  &algebra.Scan{Source: "R", Var: "y", Fields: []string{"id", "score"}, Filter: mcl.MustParse("y.score < 4")},
			On: []algebra.EquiPair{{LExpr: mcl.MustParse("x.id"), RExpr: mcl.MustParse(rkey)}},
		},
	}
}

// streamResult runs plan in pull-sink mode and gathers the emitted
// chunks into the collection its root declares: a list for ordered and
// list plans (emission order kept), else a bag or set.
func streamResult(ex Executor, plan *algebra.Reduce, cat algebra.Catalog) (values.Value, error) {
	var mu sync.Mutex
	var elems []values.Value
	err := ex.RunStream(context.Background(), plan, cat, func(chunk []values.Value) error {
		mu.Lock()
		elems = append(elems, chunk...)
		mu.Unlock()
		return nil
	})
	switch {
	case plan.Order.Ordered() || plan.M.Name() == "list":
		return values.NewList(elems...), err
	case plan.M.Name() == "set":
		return values.NewSet(elems...), err
	default:
		return values.NewBag(elems...), err
	}
}

// runBoth runs plan through Executor.Run and, for a collection root,
// through Executor.RunStream; the stream result is gathered as
// streamResult does. Scalar roots have no stream mode.
func runBoth(ex Executor, plan *algebra.Reduce, cat algebra.Catalog) (map[string]values.Value, map[string]error) {
	got := map[string]values.Value{}
	errs := map[string]error{}
	got["Run"], errs["Run"] = ex.Run(plan, cat)
	if CanStream(plan) {
		got["RunStream"], errs["RunStream"] = streamResult(ex, plan, cat)
	}
	return got, errs
}

// TestParallelMorselDeterminism asserts that morsel-parallel folds
// produce exactly the serial results, through both execution roots, for
// every fold kind: reduce (every collection monoid — including the
// non-commutative list, whose order the in-order partial merge must
// preserve — and the exact scalar monoids), top-k with and without a
// limit, the bare-LIMIT quota stream, the plain stream, group-by with
// HAVING, and the hash join. List and ordered results must be
// byte-identical, bag and set results multiset-equal.
func TestParallelMorselDeterminism(t *testing.T) {
	cat, rd := csvCatalog(t, 5000)
	queries := []string{
		`for { r <- R, r.score > 1 } yield list r.id`,
		`for { r <- R } yield bag r.score`,
		`for { r <- R } yield set r.score`,
		`for { r <- R, r.score > 2 } yield sum r.id`,
		`for { r <- R } yield count r`,
		`for { r <- R } yield max r.id`,
		`for { r <- R, r.score = 3 } yield min r.id`,
		`for { r <- R, r.score > 1 } yield list r.id order by r.bmi desc, r.id limit 7 offset 3`,
		`for { r <- R } yield bag (i := r.id, b := r.bmi) order by r.bmi, r.id desc`,
		`for { r <- R } yield set r.score order by r.score desc limit 3`,
		`for { r <- R, r.score > 1 } yield list r.id limit 40 offset 9`,
		`for { r <- R } group by { s := r.score } agg { n := count r, t := sum r.id } having n > 714 yield list (s := s, n := n, t := t)`,
		`for { r <- R } group by { s := r.score } agg { t := sum r.id, a := avg r.bmi } yield bag (s := s, t := t, a := a) order by t desc limit 3`,
	}
	plans := map[string]*algebra.Reduce{
		"join list": csvJoinPlan("list", false),
		"join bag":  csvJoinPlan("bag", false),
	}
	for _, q := range queries {
		plans[q] = planFor2(t, q, cat)
	}
	serial := Executor{Opts: Options{Workers: 1}}
	parallel := Executor{Opts: Options{Workers: 8, ParallelThreshold: 1, BatchSize: 64}}
	for q, plan := range plans {
		want, err := serial.Run(plan, cat) // the first run also builds the posmap
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		for trial := 0; trial < 3; trial++ {
			for _, ex := range []Executor{serial, parallel} {
				got, errs := runBoth(ex, plan, cat)
				for root, v := range got {
					if errs[root] != nil {
						t.Fatalf("%s workers=%d %q: %v", root, ex.Opts.Workers, q, errs[root])
					}
					if v.String() != want.String() {
						t.Fatalf("%s workers=%d %q diverged (trial %d):\ngot:  %v\nwant: %v", root, ex.Opts.Workers, q, trial, v, want)
					}
				}
			}
		}
	}
	// A bare LIMIT over a bag keeps unspecified rows: under parallelism
	// only the count and membership in the unbounded result are fixed.
	full := planFor2(t, `for { r <- R, r.score > 1 } yield bag (i := r.id, s := r.score)`, cat)
	all, err := serial.Run(full, cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`for { r <- R, r.score > 1 } yield bag (i := r.id, s := r.score) limit 25`,
		`for { r <- R, r.score > 1 } yield bag (i := r.id, s := r.score) limit 25 offset 100`,
	} {
		plan := planFor2(t, q, cat)
		for _, ex := range []Executor{serial, parallel} {
			got, errs := runBoth(ex, plan, cat)
			for root, v := range got {
				if errs[root] != nil {
					t.Fatalf("%s workers=%d %q: %v", root, ex.Opts.Workers, q, errs[root])
				}
				if v.Len() != 25 {
					t.Fatalf("%s workers=%d %q: %d rows, want 25", root, ex.Opts.Workers, q, v.Len())
				}
				if !subBag(v.Elems(), all.Elems()) {
					t.Fatalf("%s workers=%d %q: rows outside the full result: %v", root, ex.Opts.Workers, q, v)
				}
			}
		}
	}
	if rd.StatsSnapshot()["posmap_scans"] == 0 {
		t.Fatal("parallel runs never touched the positional map fast path")
	}
}

// subBag reports whether sub is a sub-multiset of all (both sorted, as
// bag elements are).
func subBag(sub, all []values.Value) bool {
	j := 0
	for _, v := range sub {
		for j < len(all) && values.Compare(all[j], v) < 0 {
			j++
		}
		if j == len(all) || !values.Equal(all[j], v) {
			return false
		}
		j++
	}
	return true
}

// TestParallelErrorPropagation: a failure inside one morsel of any fold
// kind must surface as the query error from both execution roots, not
// hang or get lost. Every query projects through an int (r.id.x), so
// the failing expression is a reduce or stream head, a sort key, a
// grouping aggregate or a join build key.
func TestParallelErrorPropagation(t *testing.T) {
	cat, _ := csvCatalog(t, 4000)
	plans := map[string]*algebra.Reduce{"join build key": csvJoinPlan("bag", true)}
	for _, q := range []string{
		`for { r <- R } yield list r.id.x`,
		`for { r <- R } yield bag r.id.x`,
		`for { r <- R } yield sum r.id.x`,
		`for { r <- R } yield list r.id order by r.id.x limit 5`,
		`for { r <- R } yield bag r.id.x limit 5`,
		`for { r <- R } group by { s := r.score } agg { t := sum r.id.x } yield bag (s := s, t := t)`,
	} {
		plans[q] = planFor2(t, q, cat)
	}
	serial := Executor{Opts: Options{Workers: 1}}
	parallel := Executor{Opts: Options{Workers: 8, ParallelThreshold: 1, BatchSize: 64}}
	if _, err := serial.Run(planFor2(t, `for { r <- R } yield count r`, cat), cat); err != nil {
		t.Fatal(err) // builds the posmap: later runs can go parallel
	}
	for q, plan := range plans {
		for _, ex := range []Executor{serial, parallel} {
			_, errs := runBoth(ex, plan, cat)
			for root, err := range errs {
				if err == nil {
					t.Fatalf("%s workers=%d %q: want an error", root, ex.Opts.Workers, q)
				}
			}
		}
	}
}

// TestFoldSpanParallelAttrs pins the fold driver's span contract: every
// fold kind records parallel plus, when it went parallel, its morsel
// and worker counts — on its fold span, or for the hash join on the
// join_build span.
func TestFoldSpanParallelAttrs(t *testing.T) {
	cat, _ := csvCatalog(t, 3000)
	type foldCase struct {
		kind   string // fold span kind, or "join_build"
		plan   *algebra.Reduce
		stream bool
	}
	cases := []foldCase{
		{"reduce", planFor2(t, `for { r <- R, r.score > 1 } yield count r`, cat), false},
		{"topk", planFor2(t, `for { r <- R } yield list r.id order by r.bmi desc limit 5`, cat), false},
		{"limit", planFor2(t, `for { r <- R } yield bag r.id limit 5`, cat), false},
		{"stream", planFor2(t, `for { r <- R } yield bag r.id`, cat), true},
		{"groupagg", planFor2(t, `for { r <- R } group by { s := r.score } agg { n := count r } yield bag (s := s, n := n)`, cat), false},
		{"join_build", csvJoinPlan("count", false), false},
	}
	if _, err := (Executor{Opts: Options{Workers: 1}}).Run(cases[0].plan, cat); err != nil {
		t.Fatal(err) // builds the posmap: later runs can go parallel
	}
	foldSpan := func(root *trace.SpanNode, kind string) *trace.SpanNode {
		var found *trace.SpanNode
		root.Walk(func(n *trace.SpanNode) {
			if found == nil && (n.Name == "fold" && n.Attrs["kind"] == kind || n.Name == kind) {
				found = n
			}
		})
		return found
	}
	for _, fc := range cases {
		for _, parallel := range []bool{false, true} {
			opts := Options{Workers: 1}
			if parallel {
				opts = Options{Workers: 4, ParallelThreshold: 1, BatchSize: 64}
			}
			tr := trace.New("q", "query")
			opts.Trace = tr.Root()
			ex := Executor{Opts: opts}
			var err error
			if fc.stream {
				_, err = streamResult(ex, fc.plan, cat)
			} else {
				_, err = ex.Run(fc.plan, cat)
			}
			if err != nil {
				t.Fatalf("%s parallel=%v: %v", fc.kind, parallel, err)
			}
			tr.Finish()
			sp := foldSpan(tr.Snapshot(), fc.kind)
			if sp == nil {
				t.Fatalf("%s parallel=%v: no span recorded", fc.kind, parallel)
			}
			if got := sp.Attrs["parallel"]; got != parallel {
				t.Fatalf("%s parallel=%v: parallel attr = %v", fc.kind, parallel, got)
			}
			_, morsels := sp.Attrs["morsels"]
			_, workers := sp.Attrs["workers"]
			if morsels != parallel || workers != parallel {
				t.Fatalf("%s parallel=%v: attrs %v, want morsels and workers only when parallel", fc.kind, parallel, sp.Attrs)
			}
		}
	}
}

// TestVectorizedFilterShapes exercises the kernel shapes (const compare,
// flipped const, slot-vs-slot, conjunction, string compare) against the
// reference executor.
func TestVectorizedFilterShapes(t *testing.T) {
	rows := []values.Value{}
	names := []string{"ada", "bob", "eve", "dan", "zoe"}
	for i := 0; i < 37; i++ {
		rows = append(rows, rec("a", i%9, "b", float64(i%5)+0.5, "s", names[i%len(names)]))
	}
	xsType := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "a", Type: sdg.Int},
		sdg.Attr{Name: "b", Type: sdg.Float},
		sdg.Attr{Name: "s", Type: sdg.String},
	))
	cat := &schemaCat{
		MapCatalog: algebra.MapCatalog{"Xs": &algebra.SliceSource{SrcName: "Xs", Rows: rows}},
		descs:      map[string]*sdg.Description{"Xs": {Name: "Xs", Format: sdg.FormatTable, Schema: xsType}},
	}
	queries := []string{
		`for { x <- Xs, x.a > 4 } yield count x`,
		`for { x <- Xs, x.a >= 4 } yield count x`,
		`for { x <- Xs, x.a != 4 } yield count x`,
		`for { x <- Xs, 4 < x.a } yield count x`,
		`for { x <- Xs, x.a > 2.5 } yield count x`,
		`for { x <- Xs, x.b <= 2.5 } yield sum x.a`,
		`for { x <- Xs, x.s = "eve" } yield count x`,
		`for { x <- Xs, x.s < "dan" } yield count x`,
		`for { x <- Xs, x.a > 2, x.b < 3.0 } yield count x`,
		`for { x <- Xs, x.a > x.b } yield count x`,
	}
	for _, q := range queries {
		plan := planFor2(t, q, cat)
		want, err := algebra.Reference{}.Run(plan, cat)
		if err != nil {
			t.Fatalf("ref %q: %v", q, err)
		}
		got, err := Executor{Opts: Options{BatchSize: 8}}.Run(plan, cat)
		if err != nil {
			t.Fatalf("jit %q: %v", q, err)
		}
		if !values.Equal(got, want) {
			t.Fatalf("%q diverged: jit=%v ref=%v", q, got, want)
		}
	}
}
