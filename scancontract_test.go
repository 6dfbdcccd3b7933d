package vida_test

// One scan contract, tested at the public API: every format reaches the
// cache through the same batch harvest, so after first touch the source
// format stops mattering — the same rows answer identically from CSV and
// JSON under every executor, cold and warm, and a JSON source's typed
// attributes are cached as typed vectors.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vida"
	"vida/internal/cache"
	"vida/internal/rawxls"
	"vida/internal/values"
	"vida/internal/vec"
)

const twinRows = 2500 // three batches, the last one partial

// twinRow is row i of the shared test table: id, age, a non-integral
// income and a low-cardinality city.
func twinRow(i int) (id, age int, income float64, city string) {
	return i, 20 + i*7%60, float64(i)*1.25 + 0.5, fmt.Sprintf("c%d", i%7)
}

// writeTwins writes the shared table as CSV and as newline-delimited
// JSON, plus a 500-row Dim CSV for joins.
func writeTwins(t *testing.T) (csvPath, jsonPath, dimPath string) {
	t.Helper()
	dir := t.TempDir()
	var c, j, d strings.Builder
	c.WriteString("id,age,income,city\n")
	for i := 0; i < twinRows; i++ {
		id, age, income, city := twinRow(i)
		fmt.Fprintf(&c, "%d,%d,%.2f,%s\n", id, age, income, city)
		fmt.Fprintf(&j, `{"id": %d, "age": %d, "income": %.2f, "city": %q}`+"\n", id, age, income, city)
	}
	d.WriteString("id,k\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&d, "%d,%d\n", i*3, i%5)
	}
	csvPath, jsonPath, dimPath = filepath.Join(dir, "t.csv"), filepath.Join(dir, "t.json"), filepath.Join(dir, "dim.csv")
	for path, body := range map[string]string{csvPath: c.String(), jsonPath: j.String(), dimPath: d.String()} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return csvPath, jsonPath, dimPath
}

const twinSchema = "Record(Att(id, int), Att(age, int), Att(income, float), Att(city, string))"

// twinEngine registers the CSV as TC, the JSON as TJ and the Dim CSV.
func twinEngine(t *testing.T, csvPath, jsonPath, dimPath string, opts ...vida.Option) *vida.Engine {
	t.Helper()
	eng := vida.New(opts...)
	if err := eng.RegisterCSV("TC", csvPath, twinSchema, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterJSON("TJ", jsonPath, twinSchema); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterCSV("Dim", dimPath, "Record(Att(id, int), Att(k, int))", nil); err != nil {
		t.Fatal(err)
	}
	return eng
}

// runQuery runs a comprehension (or SQL, when sql is set) with a
// deadline, so a scan that deadlocks fails the test instead of hanging.
func runQuery(t *testing.T, eng *vida.Engine, q string, sql bool) string {
	t.Helper()
	type answer struct {
		res *vida.Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		var a answer
		if sql {
			a.res, a.err = eng.QuerySQL(q)
		} else {
			a.res, a.err = eng.Query(q)
		}
		done <- a
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatalf("%s: %v", q, a.err)
		}
		return a.res.String()
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: no answer within 30s", q)
		return ""
	}
}

// TestCSVJSONDifferential: the same rows registered as CSV and as JSON
// answer filters, arithmetic aggregates, GROUP BY/HAVING, ORDER BY/LIMIT
// and joins identically — cold and warm, through the JIT, static and
// reference executors — and first touch caches the JSON source's int
// attributes as typed int64 vectors.
func TestCSVJSONDifferential(t *testing.T) {
	csvPath, jsonPath, dimPath := writeTwins(t)
	queries := []struct {
		q   string
		sql bool
	}{
		{`for { t <- $T, t.age > 40, t.city = "c3" } yield count t`, false},
		{`for { t <- $T, t.income > 500.0 } yield avg (t.id * 2 + t.age)`, false},
		{`SELECT t.city, COUNT(*) AS n, SUM(t.age) AS s FROM $T t GROUP BY t.city HAVING COUNT(*) > 300 ORDER BY t.city`, true},
		{`SELECT t.id, t.income FROM $T t WHERE t.age < 30 ORDER BY t.income DESC, t.id LIMIT 5`, true},
		{`for { t <- $T, d <- Dim, t.id = d.id, d.k > 2 } yield sum t.age`, false},
		// A self-join scans one cold source twice in one query.
		{`for { a <- $T, b <- $T, a.id = b.id, b.age > 50 } yield sum a.age`, false},
	}
	executors := []struct {
		name string
		opts []vida.Option
	}{
		{"jit", nil},
		{"static", []vida.Option{vida.WithStaticExecutor()}},
		{"reference", []vida.Option{vida.WithReferenceExecutor()}},
	}
	for _, qc := range queries {
		var want string
		for _, ex := range executors {
			eng := twinEngine(t, csvPath, jsonPath, dimPath, ex.opts...)
			for _, src := range []string{"TC", "TJ"} {
				q := strings.ReplaceAll(qc.q, "$T", src)
				for _, phase := range []string{"cold", "warm"} {
					got := runQuery(t, eng, q, qc.sql)
					if want == "" {
						want = got
					}
					if got != want {
						t.Fatalf("%s %s %s: %s\n got %s\nwant %s", ex.name, src, phase, q, got, want)
					}
				}
			}
		}
	}

	// First touch harvests the JSON source into typed vectors.
	eng := twinEngine(t, csvPath, jsonPath, dimPath)
	runQuery(t, eng, `for { t <- TJ, t.income > 0.0, t.city != "x" } yield sum (t.id + t.age)`, false)
	entry, ok := eng.Internal().Caches().Peek("TJ", cache.LayoutColumns)
	if !ok {
		t.Fatal("no columnar entry for the JSON source after first touch")
	}
	for name, want := range map[string]vec.Tag{"id": vec.Int64, "age": vec.Int64, "income": vec.Float64, "city": vec.Str} {
		if got := entry.Cols[name].Tag; got != want {
			t.Errorf("JSON column %s cached as %v, want %v", name, got, want)
		}
	}
}

// TestJSONDemotionAgrees: values that do not fit their schema tag — a
// float attribute holding both ints and floats — demote to boxed and
// answer exactly as the values say; a missing field is a null row of a
// typed column (the validity mask CSV nulls use) and answers like the
// CSV twin's empty cell.
func TestJSONDemotionAgrees(t *testing.T) {
	dir := t.TempDir()
	var mixed, sparse, sparseCSV strings.Builder
	sparseCSV.WriteString("id,v\n")
	wantCount, wantSum := 0, 0.0
	for i := 0; i < twinRows; i++ {
		if i%3 == 0 {
			fmt.Fprintf(&mixed, `{"id": %d, "v": %d}`+"\n", i, i)
		} else {
			fmt.Fprintf(&mixed, `{"id": %d, "v": %d.5}`+"\n", i, i)
		}
		if v := float64(i) + 0.5*float64(min(i%3, 1)); v > 100 {
			wantCount++
			wantSum += v
		}
		if i%5 == 0 {
			fmt.Fprintf(&sparse, `{"id": %d}`+"\n", i)
			fmt.Fprintf(&sparseCSV, "%d,\n", i)
		} else {
			fmt.Fprintf(&sparse, `{"id": %d, "v": %d}`+"\n", i, i%50)
			fmt.Fprintf(&sparseCSV, "%d,%d\n", i, i%50)
		}
	}
	files := map[string]string{"mixed.json": mixed.String(), "sparse.json": sparse.String(), "sparse.csv": sparseCSV.String()}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	register := func(eng *vida.Engine) {
		t.Helper()
		for _, err := range []error{
			eng.RegisterJSON("Mixed", filepath.Join(dir, "mixed.json"), "Record(Att(id, int), Att(v, float))"),
			eng.RegisterJSON("Sparse", filepath.Join(dir, "sparse.json"), "Record(Att(id, int), Att(v, int))"),
			eng.RegisterCSV("SparseCSV", filepath.Join(dir, "sparse.csv"), "Record(Att(id, int), Att(v, int))", nil),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	mixedQ := `for { t <- Mixed, t.v > 100 } yield sum t.v`
	countQ := `for { t <- Mixed, t.v > 100 } yield count t`
	sparseQ := `for { t <- $S, t.v > 10 } yield sum (t.v + t.id)`
	var mixedWant, sparseWant string
	for _, opts := range [][]vida.Option{nil, {vida.WithStaticExecutor()}, {vida.WithReferenceExecutor()}} {
		eng := vida.New(opts...)
		register(eng)
		for _, phase := range []string{"cold", "warm"} {
			got := runQuery(t, eng, mixedQ, false)
			if mixedWant == "" {
				mixedWant = got
			}
			if got != mixedWant {
				t.Fatalf("mixed %s: %s, want %s", phase, got, mixedWant)
			}
			if n := runQuery(t, eng, countQ, false); n != fmt.Sprint(wantCount) {
				t.Fatalf("mixed %s count = %s, want %d", phase, n, wantCount)
			}
			for _, src := range []string{"SparseCSV", "Sparse"} {
				got := runQuery(t, eng, strings.ReplaceAll(sparseQ, "$S", src), false)
				if sparseWant == "" {
					sparseWant = got
				}
				if got != sparseWant {
					t.Fatalf("sparse %s %s: %s, want %s", src, phase, got, sparseWant)
				}
			}
		}
	}
	// The expected mixed sum, computed in Go: every value is a multiple
	// of 0.5, so float addition is exact in any order.
	eng := vida.New()
	register(eng)
	r, err := eng.Query(mixedQ)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Value(); got.Float() != wantSum {
		t.Fatalf("mixed sum = %v, want %v", got, wantSum)
	}
	entry, ok := eng.Internal().Caches().Peek("Mixed", cache.LayoutColumns)
	if !ok || entry.Cols["v"].Tag != vec.Boxed {
		t.Fatalf("mixed v column: cached=%v, want a boxed column", ok)
	}
	runQuery(t, eng, strings.ReplaceAll(sparseQ, "$S", "Sparse"), false)
	entry, ok = eng.Internal().Caches().Peek("Sparse", cache.LayoutColumns)
	if !ok {
		t.Fatal("no entry for the sparse JSON source")
	}
	if v := entry.Cols["v"]; v.Tag != vec.Int64 || v.Nulls == nil || !v.Nulls[0] {
		t.Fatalf("sparse v column = %v (mask %v), want int64 with row 0 null", v.Tag, v.Nulls != nil)
	}
}

// TestColdScanCountsOneMiss: one cold query over a CSV, a JSON and an
// Iterate-only (spreadsheet) source records exactly one cache miss and
// one raw scan; the repeat is exactly one cache scan.
func TestColdScanCountsOneMiss(t *testing.T) {
	csvPath, jsonPath, _ := writeTwins(t)
	xlsPath := filepath.Join(t.TempDir(), "t.vxls")
	sheet := &rawxls.Sheet{
		ColNames: []string{"id", "age", "income", "city"},
		ColTypes: []rawxls.ColType{rawxls.ColInt, rawxls.ColInt, rawxls.ColFloat, rawxls.ColString},
	}
	rows := make([][]values.Value, twinRows)
	for i := range rows {
		id, age, income, city := twinRow(i)
		rows[i] = []values.Value{values.NewInt(int64(id)), values.NewInt(int64(age)), values.NewFloat(income), values.NewString(city)}
	}
	if err := rawxls.Write(xlsPath, sheet, rows); err != nil {
		t.Fatal(err)
	}
	register := map[string]func(*vida.Engine) error{
		"csv":  func(e *vida.Engine) error { return e.RegisterCSV("T", csvPath, twinSchema, nil) },
		"json": func(e *vida.Engine) error { return e.RegisterJSON("T", jsonPath, twinSchema) },
		"xls":  func(e *vida.Engine) error { return e.RegisterXLS("T", xlsPath, twinSchema) },
	}
	const q = `for { t <- T, t.age > 30 } yield sum t.id`
	var want string
	for _, format := range []string{"csv", "json", "xls"} {
		eng := vida.New()
		if err := register[format](eng); err != nil {
			t.Fatal(err)
		}
		got := runQuery(t, eng, q, false)
		if want == "" {
			want = got
		}
		if got != want {
			t.Fatalf("%s answer %s, want %s", format, got, want)
		}
		st := eng.Stats()
		if st.Cache.Misses != 1 || st.RawScans != 1 || st.CacheScans != 0 {
			t.Fatalf("%s cold: misses=%d raw=%d cache=%d, want 1/1/0", format, st.Cache.Misses, st.RawScans, st.CacheScans)
		}
		if got := runQuery(t, eng, q, false); got != want {
			t.Fatalf("%s warm answer %s, want %s", format, got, want)
		}
		st = eng.Stats()
		if st.CacheScans != 1 || st.RawScans != 1 || st.Cache.Misses != 1 {
			t.Fatalf("%s warm: cache=%d raw=%d misses=%d, want 1/1/1", format, st.CacheScans, st.RawScans, st.Cache.Misses)
		}
	}
}
