package jit

import (
	"fmt"
	"strings"
	"testing"

	"vida/internal/algebra"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/trace"
	"vida/internal/values"
	"vida/internal/vec"
)

// This file is the differential harness for the typed warm path: bound
// parameter arithmetic (folded at bind time), constant heads and
// aggregate inputs (broadcast kernels) and the unboxed top-k pre-check
// must answer — and fail — exactly as the reference executor does, in
// the static executor and in serial and morsel-parallel JIT runs.

// typedCatalog serves table P over typed column windows (diffTable)
// with a schema, so JIT scans bind attribute slots: id 0..n-1, w a
// float (multiples of 1/4, so sums are exact in any order), g a
// five-valued string, d the same strings dictionary-coded, and k a
// heavily tied int with ~15% nulls.
func typedCatalog(n int) *schemaCat {
	groups := []string{"ash", "birch", "cedar", "elm", "fir"}
	id := vec.Col{Tag: vec.Int64}
	w := vec.Col{Tag: vec.Float64}
	g := vec.Col{Tag: vec.Str}
	d := vec.Col{Tag: vec.StrDict, Dict: groups}
	k := vec.Col{Tag: vec.Int64, Nulls: make([]bool, n)}
	for i := 0; i < n; i++ {
		id.Ints = append(id.Ints, int64(i))
		w.Floats = append(w.Floats, float64((i*37)%400)/4)
		g.Strs = append(g.Strs, groups[i%len(groups)])
		d.Codes = append(d.Codes, uint32((i/3)%len(groups)))
		k.Ints = append(k.Ints, int64(i%4))
		k.Nulls[i] = i%7 == 3
	}
	fields := []string{"id", "w", "g", "d", "k"}
	schema := sdg.Bag(sdg.Record(
		sdg.Attr{Name: "id", Type: sdg.Int},
		sdg.Attr{Name: "w", Type: sdg.Float},
		sdg.Attr{Name: "g", Type: sdg.String},
		sdg.Attr{Name: "d", Type: sdg.String},
		sdg.Attr{Name: "k", Type: sdg.Int},
	))
	return &schemaCat{
		MapCatalog: algebra.MapCatalog{"P": &diffTable{name: "P", fields: fields, cols: []vec.Col{id, w, g, d, k}, n: n}},
		descs:      map[string]*sdg.Description{"P": {Name: "P", Format: sdg.FormatTable, Schema: schema}},
	}
}

// boundPlan translates an mcl query and binds its parameters after
// normalization, as the engine does for every execution.
func boundPlan(t *testing.T, src string, cat *schemaCat, params map[string]values.Value) *algebra.Reduce {
	t.Helper()
	return algebra.BindParams(planFor2(t, src, cat), params)
}

// diffAll runs plan under the reference executor, the static executor,
// a serial JIT and a morsel-parallel JIT (8 workers, every fold
// parallel, 64-row batches) and fails on any divergence in result or
// error text. It returns the reference outcome and the boxed stages
// the JIT compiled.
func diffAll(t *testing.T, label string, plan *algebra.Reduce, cat algebra.Catalog, pool *sched.Pool) (values.Value, error, int64) {
	t.Helper()
	want, wantErr := algebra.Reference{}.Run(plan, cat)
	var boxed int64
	stats := func(_, b int64) { boxed = b }
	runs := []struct {
		name string
		ex   algebra.Executor
	}{
		{"static", StaticExecutor{}},
		{"jit serial", Executor{Opts: Options{Workers: 1, KernelStats: stats}}},
		{"jit parallel", Executor{Opts: Options{Workers: 8, ParallelThreshold: 1, BatchSize: 64, Pool: pool, KernelStats: stats}}},
	}
	for _, r := range runs {
		got, err := r.ex.Run(plan, cat)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%s: %s: error %v, reference error %v", label, r.name, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("%s: %s: error %q, reference %q", label, r.name, err, wantErr)
		case err == nil && !values.Equal(got, want):
			t.Fatalf("%s: %s diverged:\n got %v\nwant %v", label, r.name, got, want)
		}
	}
	return want, wantErr, boxed
}

func TestBoundParamArithmeticDifferential(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	cat := typedCatalog(700)
	one := func(v values.Value) map[string]values.Value { return map[string]values.Value{"1": v} }
	for _, tc := range []struct {
		q       string
		param   values.Value
		typed   bool // compiles with no boxed stage
		wantErr string
	}{
		{`for { p <- P, p.id >= $1, p.id < $1 + 1000 } yield sum p.w`, values.NewInt(40), true, ""},
		{`for { p <- P, p.id < $1 + 1000 } yield bag (i := p.id)`, values.NewInt(-950), true, ""},
		{`for { p <- P, p.w > $1 * 2.5 } yield count p.id`, values.NewInt(3), true, ""},
		{`for { p <- P } yield sum (p.id * ($1 * 2.5))`, values.NewInt(2), true, ""},
		{`for { p <- P, p.id < $1 + 1000 } yield count p.id`, values.Null, true, ""},
		{`for { p <- P } yield list ($1 + p.id)`, values.Null, false, ""},
		{`for { p <- P, p.id < $1 / 0 } yield count p`, values.NewInt(5), false, "integer division by zero"},
		{`for { p <- P, p.id < 0, p.id < $1 / 0 } yield count p`, values.NewInt(5), false, ""},
		{`for { p <- P } group by { g := p.g } agg { n := count p.id } having n > $1 + 100 yield bag (g := g, n := n)`, values.NewInt(30), true, ""},
	} {
		label := fmt.Sprintf("%s [$1=%v]", tc.q, tc.param)
		got, err, boxed := diffAll(t, label, boundPlan(t, tc.q, cat, one(tc.param)), cat, pool)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%s: error %v, want %q", label, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if tc.typed && boxed != 0 {
			t.Errorf("%s: %d boxed stages, want 0", label, boxed)
		}
		if strings.Contains(tc.q, "p.id < 0") && got.Int() != 0 {
			t.Fatalf("%s: empty selection counted %v", label, got)
		}
	}
}

func TestConstantHeadsDifferential(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	cat := typedCatalog(700)
	for _, q := range []string{
		`for { p <- P, p.id > 100 } yield sum 1`,
		`for { p <- P, p.id > 100 } yield sum 2.5`,
		`for { p <- P, p.id > 100 } yield avg 1`,
		`for { p <- P, p.id > 100 } yield count 1`,
		`for { p <- P, p.id > 5000 } yield sum 1`,
		`for { p <- P, p.id > 5000 } yield avg 1`,
		`for { p <- P } yield sum -2`,
		`for { p <- P } group by { g := p.g } agg { a := sum 1, b := sum 2.5, c := avg 1 } yield list (g := g, a := a, b := b, c := c) order by g`,
		`for { p <- P, p.id > 5000 } group by { g := p.g } agg { a := sum 1, c := avg 1 } yield bag (g := g, a := a, c := c)`,
		`for { p <- P } group by { one := 1 } agg { a := sum 1, c := avg p.w } yield bag (one := one, a := a, c := c)`,
	} {
		if _, err, boxed := diffAll(t, q, planFor2(t, q, cat), cat, pool); err != nil {
			t.Fatalf("%s: %v", q, err)
		} else if boxed != 0 {
			t.Errorf("%s: %d boxed stages, want 0", q, boxed)
		}
	}
}

// TestTopKPreCheckDifferential drives the unboxed top-k pre-check
// through its branches: int and float first keys, ascending and
// descending, heavy ties and nulls in the first key (decided only by
// the boxed comparison), mixed directions on later keys, and a kernel
// first key.
func TestTopKPreCheckDifferential(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	cat := typedCatalog(900)
	for _, q := range []string{
		`for { p <- P } yield list (i := p.id, k := p.k) order by p.k desc, p.id limit 20`,
		`for { p <- P } yield list (i := p.id, k := p.k) order by p.k, p.id desc limit 20 offset 7`,
		`for { p <- P } yield list (i := p.id, w := p.w) order by p.w, p.id desc limit 25`,
		`for { p <- P } yield list (i := p.id, w := p.w) order by p.w desc, p.k, p.id limit 25`,
		`for { p <- P, p.id > 50 } yield list p.id order by p.w * 2 - p.id desc limit 15`,
		`for { p <- P } yield bag (i := p.id, g := p.d) order by p.k desc, p.d, p.id limit 30`,
		`for { p <- P } yield set p.k order by p.k desc limit 3`,
	} {
		if _, err, boxed := diffAll(t, q, planFor2(t, q, cat), cat, pool); err != nil {
			t.Fatalf("%s: %v", q, err)
		} else if boxed != 0 {
			t.Errorf("%s: %d boxed stages, want 0", q, boxed)
		}
	}
}

// TestBoxedStagesNamed pins the fallback accounting: a boxed filter and
// a boxed sort key each count as a boxed stage and are named on the
// trace (boxed_exprs), while the record head that only builds the
// emitted elements is the result boundary and is not counted.
func TestBoxedStagesNamed(t *testing.T) {
	cat := typedCatalog(200)
	plan := planFor2(t, `for { p <- P, contains(p.g, "e") } yield list (i := p.id, g := p.g)
		order by (if p.k > 1 then p.w else 0.0) desc, p.id limit 3`, cat)
	var vecd, boxed int64
	tr := trace.New("q1", "query")
	opts := Options{Trace: tr.Root(), KernelStats: func(v, b int64) { vecd, boxed = v, b }}
	if _, err := (Executor{Opts: opts}).Run(plan, cat); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if boxed != 2 || vecd != 1 {
		t.Fatalf("stages: %d vectorized, %d boxed; want 1 (the p.id key) and 2 (filter, first key)", vecd, boxed)
	}
	named := fmt.Sprint(tr.Snapshot().Attrs["boxed_exprs"])
	for _, want := range []string{"contains", "if "} {
		if !strings.Contains(named, want) {
			t.Fatalf("boxed_exprs = %s, want it to name %q", named, want)
		}
	}
}
