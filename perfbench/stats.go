package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the nearest-rank p-th percentile of xs. Failed
// operations are recorded as +Inf, so they count as misses of any
// latency limit instead of dropping out of the tail.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// latencies is a workload's per-operation latency record in
// milliseconds; failed operations are +Inf.
type latencies struct {
	samples []float64
}

func (l *latencies) add(d time.Duration) { l.samples = append(l.samples, ms(d)) }
func (l *latencies) fail()               { l.samples = append(l.samples, math.Inf(1)) }

// report sets latency_p50_ms and latency_tail_ms. The tail is the fixed
// percentile tailP of the workload, chosen so that a normal run leaves
// at least ten samples beyond it; the diagnostic line states the sample
// count so a run that did not is visible.
func (l *latencies) report(rep *report, tailP float64) {
	n := len(l.samples)
	rep.set("latency_p50_ms", percentile(l.samples, 50), "ms")
	rep.set("latency_tail_ms", percentile(l.samples, tailP), "ms")
	beyond := int(float64(n) * (100 - tailP) / 100)
	rep.note("latency_tail_ms is p%g over %d samples (%d beyond it)", tailP, n, beyond)
}

// settle collects the previous phase's garbage, so that the benchmark's
// own input generation and the last phase's leftovers are not charged
// to the next timed phase. It always runs outside timed intervals.
func settle() { runtime.GC() }

// allocMeter measures heap allocations over a phase.
type allocMeter struct {
	mallocs, bytes uint64
}

func startAllocs() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.Mallocs, m.TotalAlloc}
}

// since returns the allocations and bytes since the meter started.
func (a allocMeter) since() (mallocs, bytes float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs - a.mallocs), float64(m.TotalAlloc - a.bytes)
}

// reportAllocs sets allocs_per_query and alloc_bytes_per_query.
func reportAllocs(rep *report, mallocs, bytes float64, queries int64) {
	q := float64(max(queries, 1))
	rep.set("allocs_per_query", mallocs/q, "count")
	rep.set("alloc_bytes_per_query", bytes/q, "B")
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
