// Command perfbench is the repository's benchmark: one command that
// generates its inputs from a seed, drives one workload against the
// engine, checks every answer against an independent oracle and prints
// the workload's metrics by name and unit.
//
//	bash perfbench/run.sh --workload hbp-session --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// makes the separate traced run that times calls into each layer's
// public functions from outside the engine and reads the counters the
// layers export. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. METRICS.md documents
// every metric, the tail percentile of each workload and the layer →
// end-to-end mapping.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // input size multiplier: 1, or tiny in the self-test
	dataDir  string  // scratch root for generated inputs
	// corruptOracle makes the oracle wrong on purpose; the self-test
	// uses it to prove that the answer check catches errors.
	corruptOracle bool
}

// deadline returns the end of a measured phase started now.
func (c config) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// workloadRun executes one workload for cfg and fills rep.
type workloadRun func(cfg config, rep *report) error

var workloads = map[string]workloadRun{
	"hbp-session":     runHBP,
	"warm-mix-http":   runWarmMix,
	"refresh-restart": runRefresh,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: hbp-session, warm-mix-http or refresh-restart")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 makes the traced per-layer run instead of the end-to-end run")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.scale = 1
	cfg.dataDir = filepath.Join(".bench_build", "data")

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", cfg.workload)
		flag.Usage()
		os.Exit(2)
	}
	// The engine logs cache rehydration and slow queries through slog;
	// keep those lines on stderr, away from the metric output.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))

	rep, err := execute(run, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	rep.print(os.Stdout, cfg)
	if !rep.correct() {
		os.Exit(1)
	}
}

// execute runs one workload in a fresh scratch directory under
// cfg.dataDir and removes it afterwards.
func execute(run workloadRun, cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dataDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dataDir = dir
	rep := newReport()
	if err := run(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's operation counts, its metrics (the ones the
// JSON line carries) and diagnostics (printed for people only).
type report struct {
	attempted  int64
	failed     int64
	mismatches int64
	metrics    map[string]metric
	diag       []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note records a diagnostic line: a metric that only exists on this
// workload, a sample count, a mismatch.
func (r *report) note(format string, args ...any) {
	r.diag = append(r.diag, fmt.Sprintf(format, args...))
}

// mismatch records a wrong answer: it counts as a failed operation and
// makes the run incorrect.
func (r *report) mismatch(format string, args ...any) {
	r.mismatches++
	r.failed++
	if r.mismatches <= 5 {
		r.note("MISMATCH "+format, args...)
	}
}

func (r *report) correct() bool { return r.mismatches == 0 && r.attempted > 0 }

func (r *report) print(w io.Writer, cfg config) {
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%t scale=%g\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.scale)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitID())
	for _, d := range r.diag {
		fmt.Fprintf(w, "# %s\n", d)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-34s %14.6g ratio (attempted=%d failed=%d mismatches=%d)\n", "error_rate", errRate, r.attempted, r.failed, r.mismatches)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// commitID identifies the measured source: the git commit when the
// checkout is a repository, otherwise a digest of the Go sources.
func commitID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", rest)); err == nil {
				return strings.TrimSpace(string(id))[:12]
			}
			return rest
		}
		return ref[:min(12, len(ref))]
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return fmt.Sprintf("src-%x", h.Sum(nil)[:6])
}
