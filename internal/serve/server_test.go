package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vida"
	"vida/internal/algebra"
	"vida/internal/sched"
	"vida/internal/sdg"
	"vida/internal/serve"
	"vida/internal/values"
	"vida/internal/workload"
)

// newTestEngine builds an engine over generated CSV+JSON workload files.
func newTestEngine(t testing.TB, pool *sched.Pool, extra ...vida.Option) *vida.Engine {
	t.Helper()
	dir := t.TempDir()
	sc := workload.Scale{
		PatientsRows:   900,
		PatientsCols:   12,
		GeneticsRows:   700,
		GeneticsCols:   10,
		RegionsObjects: 150,
	}
	paths, err := workload.GenerateAll(dir, sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	var opts []vida.Option
	if pool != nil {
		opts = append(opts, vida.WithScheduler(pool))
	}
	opts = append(opts, extra...)
	eng := vida.New(opts...)
	if err := eng.RegisterCSV("Patients", paths.Patients, workload.PatientsSchema(sc), nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterCSV("Genetics", paths.Genetics, workload.GeneticsSchema(sc), nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterJSON("BrainRegions", paths.Regions, ""); err != nil {
		t.Fatal(err)
	}
	return eng
}

func newTestServer(t testing.TB, cfg serve.Config) (*httptest.Server, *serve.Service) {
	t.Helper()
	eng := newTestEngine(t, nil)
	svc := serve.NewService(eng, nil, cfg)
	ts := httptest.NewServer(serve.NewServer(svc).Handler())
	t.Cleanup(ts.Close)
	return ts, svc
}

func postQuery(t testing.TB, url, endpoint, query string) (int, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"query": query})
	resp, err := http.Post(url+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out
}

func TestQueryEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	code, out := postQuery(t, ts.URL, "/query", "for { p <- Patients, p.age > 40 } yield count p")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if _, ok := out["result"]; !ok {
		t.Fatalf("no result in %v", out)
	}
	if out["cached"] != false {
		t.Fatalf("first query reported cached: %v", out)
	}
	// Identical query at the same epoch is served from the result cache.
	code, out2 := postQuery(t, ts.URL, "/query", "for { p <- Patients, p.age > 40 } yield count p")
	if code != http.StatusOK || out2["cached"] != true {
		t.Fatalf("second query not cached: %d %v", code, out2)
	}
	if fmt.Sprint(out["result"]) != fmt.Sprint(out2["result"]) {
		t.Fatalf("cached result differs: %v vs %v", out["result"], out2["result"])
	}
}

func TestSQLEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	code, sqlOut := postQuery(t, ts.URL, "/sql", "SELECT COUNT(*) FROM Patients WHERE age > 40")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, sqlOut)
	}
	code, mclOut := postQuery(t, ts.URL, "/query", "for { p <- Patients, p.age > 40 } yield count p")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, mclOut)
	}
	if fmt.Sprint(sqlOut["result"]) != fmt.Sprint(mclOut["result"]) {
		t.Fatalf("SQL and comprehension disagree: %v vs %v", sqlOut["result"], mclOut["result"])
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	if code, _ := postQuery(t, ts.URL, "/query", "for { p <- Nowhere } yield count p"); code != http.StatusBadRequest {
		t.Fatalf("unknown source: status %d", code)
	}
	if code, _ := postQuery(t, ts.URL, "/query", "for { p <- "); code != http.StatusBadRequest {
		t.Fatalf("syntax error: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", resp.StatusCode)
	}
}

func TestCatalogStatsExplainHealth(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	get := func(path string) map[string]any {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	cat := get("/catalog")
	if srcs, ok := cat["sources"].([]any); !ok || len(srcs) != 3 {
		t.Fatalf("catalog = %v", cat)
	}
	postQuery(t, ts.URL, "/query", "for { p <- Patients } yield count p")
	stats := get("/stats")
	if _, ok := stats["service"]; !ok {
		t.Fatalf("stats missing service section: %v", stats)
	}
	if _, ok := stats["engine"]; !ok {
		t.Fatalf("stats missing engine section: %v", stats)
	}
	explain := get("/explain?q=" + "for+%7B+p+%3C-+Patients+%7D+yield+count+p")
	if plan, _ := explain["plan"].(string); plan == "" {
		t.Fatalf("explain = %v", explain)
	}
	if ok := get("/healthz"); ok["ok"] != true {
		t.Fatalf("healthz = %v", ok)
	}
}

// gateSource blocks inside its scan until released — the deterministic
// way to hold a query in flight.
type gateSource struct {
	name    string
	entered chan struct{}
	release chan struct{}
}

func (g *gateSource) Name() string { return g.name }

func (g *gateSource) Iterate(fields []string, yield func(values.Value) error) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	return yield(values.NewRecord(values.Field{Name: "x", Val: values.NewInt(1)}))
}

var _ algebra.Source = (*gateSource)(nil)

func registerGate(t testing.TB, eng *vida.Engine, name string) *gateSource {
	t.Helper()
	g := &gateSource{name: name, entered: make(chan struct{}, 16), release: make(chan struct{})}
	desc := sdg.DefaultDescription(name, sdg.FormatTable, "", sdg.Bag(sdg.Unknown))
	if err := eng.Internal().RegisterSource(desc, g); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAdmissionLimitReturns429(t *testing.T) {
	eng := newTestEngine(t, nil)
	gate := registerGate(t, eng, "Gate")
	// No queue: a request finding the only slot taken is shed at once
	// instead of waiting out the default deadline first.
	svc := serve.NewService(eng, nil, serve.Config{MaxInFlight: 1, MaxQueue: -1})
	ts := httptest.NewServer(serve.NewServer(svc).Handler())
	defer ts.Close()

	// Occupy the only slot with a query blocked mid-scan.
	firstDone := make(chan int, 1)
	go func() {
		code, _ := postQuery(t, ts.URL, "/query", "for { g <- Gate } yield count g")
		firstDone <- code
	}()
	<-gate.entered

	// The slot is taken: the next query must be shed with 429, promptly.
	start := time.Now()
	code, body := postQuery(t, ts.URL, "/query", "for { p <- Patients } yield count p")
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d (%v), want 429", code, body)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("429 took %v, want an immediate shed", waited)
	}

	close(gate.release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("gated query finished with %d", code)
	}
	// Slot released: queries are admitted again.
	if code, _ := postQuery(t, ts.URL, "/query", "for { p <- Patients } yield count p"); code != http.StatusOK {
		t.Fatalf("after release: status %d", code)
	}
	st := svc.StatsSnapshot()
	if st.Rejected != 1 || st.InFlight != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// slowSource yields rows forever-ish with a pause, so ctx cancellation
// is always observed mid-scan.
type slowSource struct{ name string }

func (s *slowSource) Name() string { return s.name }

func (s *slowSource) Iterate(fields []string, yield func(values.Value) error) error {
	row := values.NewRecord(values.Field{Name: "x", Val: values.NewInt(1)})
	for i := 0; i < 1_000_000; i++ {
		if i%64 == 0 {
			time.Sleep(time.Millisecond)
		}
		if err := yield(row); err != nil {
			return err
		}
	}
	return nil
}

func TestQueryTimeoutReturns504(t *testing.T) {
	eng := newTestEngine(t, nil)
	desc := sdg.DefaultDescription("Slow", sdg.FormatTable, "", sdg.Bag(sdg.Unknown))
	if err := eng.Internal().RegisterSource(desc, &slowSource{name: "Slow"}); err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(eng, nil, serve.Config{})
	ts := httptest.NewServer(serve.NewServer(svc).Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"query":      "for { s <- Slow } yield count s",
		"timeout_ms": 50,
	})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, raw)
	}
	if st := svc.StatsSnapshot(); st.Cancelled != 1 {
		t.Fatalf("stats = %+v, want one cancelled query", st)
	}
}

func TestClientCancellationAbortsQuery(t *testing.T) {
	eng := newTestEngine(t, nil)
	desc := sdg.DefaultDescription("Slow", sdg.FormatTable, "", sdg.Bag(sdg.Unknown))
	if err := eng.Internal().RegisterSource(desc, &slowSource{name: "Slow"}); err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(eng, nil, serve.Config{})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := svc.Query(ctx, "for { s <- Slow } yield count s", nil, 0)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not abort the query")
	}
	if st := svc.StatsSnapshot(); st.InFlight != 0 {
		t.Fatalf("in-flight slot not released: %+v", st)
	}
}

// TestConcurrentClientsMatchSerial is the acceptance check: many
// concurrent POST /query clients get byte-identical answers to serial
// Engine.Query runs.
func TestConcurrentClientsMatchSerial(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	eng := newTestEngine(t, pool)
	svc := serve.NewService(eng, pool, serve.Config{MaxInFlight: 64})
	ts := httptest.NewServer(serve.NewServer(svc).Handler())
	defer ts.Close()

	queries := []string{
		"for { p <- Patients, p.age > 40 } yield count p",
		"for { p <- Patients } yield sum p.age",
		"for { p <- Patients, p.gender = \"F\" } yield count p",
		"for { g <- Genetics, g.snp0 > 0 } yield count g",
		"for { r <- BrainRegions } yield count r",
		"for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 55 } yield count p",
	}
	// Serial ground truth from an identical, separate engine.
	serial := newTestEngine(t, nil)
	expected := make(map[string]string, len(queries))
	for _, q := range queries {
		res, err := serial.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		expected[q] = res.String()
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(queries))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queries {
				q := queries[(i+c)%len(queries)]
				code, out := postQuery(t, ts.URL, "/query", q)
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d: %s: status %d (%v)", c, q, code, out)
					return
				}
				// All the workload queries reduce to integers, so the JSON
				// number and the engine's literal rendering coincide.
				if got := fmt.Sprint(out["result"]); got != expected[q] {
					errs <- fmt.Errorf("client %d: %s: got %s, serial %s", c, q, got, expected[q])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every query answered identically: re-check via the service outcome
	// values against the serial renderings.
	for _, q := range queries {
		out, err := svc.Query(context.Background(), q, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := out.Result.String(); got != expected[q] {
			t.Fatalf("%s: concurrent result %s, serial %s", q, got, expected[q])
		}
	}
}

// TestCachedResultServedWhileSaturated: result-cache hits execute
// nothing, so they must be served even when every admission slot is
// held (the lookup happens before the semaphore).
func TestCachedResultServedWhileSaturated(t *testing.T) {
	eng := newTestEngine(t, nil)
	gate := registerGate(t, eng, "Gate")
	svc := serve.NewService(eng, nil, serve.Config{MaxInFlight: 1, MaxQueue: -1})
	ts := httptest.NewServer(serve.NewServer(svc).Handler())
	defer ts.Close()

	warmQ := "for { p <- Patients } yield count p"
	if code, _ := postQuery(t, ts.URL, "/query", warmQ); code != http.StatusOK {
		t.Fatal("warmup failed")
	}
	firstDone := make(chan struct{})
	go func() {
		postQuery(t, ts.URL, "/query", "for { g <- Gate } yield count g")
		close(firstDone)
	}()
	<-gate.entered
	// Saturated: a fresh query is shed at once, but the cached one still
	// serves.
	start := time.Now()
	if code, _ := postQuery(t, ts.URL, "/query", "for { p <- Patients } yield sum p.age"); code != http.StatusTooManyRequests {
		t.Fatalf("fresh query not shed while saturated: %d", code)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("429 took %v, want an immediate shed", waited)
	}
	code, out := postQuery(t, ts.URL, "/query", warmQ)
	if code != http.StatusOK || out["cached"] != true {
		t.Fatalf("cached query while saturated: %d %v", code, out)
	}
	close(gate.release)
	<-firstDone
}

// TestTimeoutClampedToDefault: a request cannot extend its timeout past
// the configured bound.
func TestTimeoutClampedToDefault(t *testing.T) {
	eng := newTestEngine(t, nil)
	desc := sdg.DefaultDescription("Slow", sdg.FormatTable, "", sdg.Bag(sdg.Unknown))
	if err := eng.Internal().RegisterSource(desc, &slowSource{name: "Slow"}); err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(eng, nil, serve.Config{DefaultTimeout: 50 * time.Millisecond})
	start := time.Now()
	_, err := svc.Query(context.Background(), "for { s <- Slow } yield count s", nil, time.Hour)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request-supplied timeout was not clamped (took %v)", elapsed)
	}
}

// TestExecutionErrorIs500: a well-formed query that fails during
// execution (an I/O-style error mid-scan) is a server-side error, not a
// 400.
func TestExecutionErrorIs500(t *testing.T) {
	eng := vida.New(vida.WithoutCaching())
	svc := serve.NewService(eng, nil, serve.Config{})
	ts := httptest.NewServer(serve.NewServer(svc).Handler())
	defer ts.Close()
	failDesc := sdg.DefaultDescription("Broken", sdg.FormatTable, "", sdg.Bag(sdg.Unknown))
	if err := eng.Internal().RegisterSource(failDesc, &failingSource{name: "Broken"}); err != nil {
		t.Fatal(err)
	}
	code, body := postQuery(t, ts.URL, "/query", "for { b <- Broken } yield count b")
	if code != http.StatusInternalServerError {
		t.Fatalf("execution error: status %d (%v), want 500", code, body)
	}
	// Frontend errors stay 400.
	if code, _ := postQuery(t, ts.URL, "/query", "for { x <- "); code != http.StatusBadRequest {
		t.Fatalf("syntax error: status %d, want 400", code)
	}
}

// failingSource errors mid-scan, simulating an I/O failure.
type failingSource struct{ name string }

func (s *failingSource) Name() string { return s.name }

func (s *failingSource) Iterate(fields []string, yield func(values.Value) error) error {
	return fmt.Errorf("disk on fire")
}
