package monoid

import (
	"math/rand"
	"sort"
	"testing"

	"vida/internal/values"
)

func intv(i int64) values.Value { return values.NewInt(i) }

// referenceTopK computes the expected Finalize output by full sort.
func referenceTopK(entries []KeyedEntry, desc []bool, offset, limit int) []values.Value {
	acc := NewTopKAcc(desc, -1)
	sorted := append([]KeyedEntry(nil), entries...)
	sort.SliceStable(sorted, func(i, j int) bool { return acc.less(&sorted[i], &sorted[j]) })
	out := make([]values.Value, len(sorted))
	for i, e := range sorted {
		out[i] = e.Elem
	}
	if offset > 0 {
		if offset >= len(out) {
			return nil
		}
		out = out[offset:]
	}
	if limit >= 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

func TestTopKAccBoundedMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		desc := []bool{rng.Intn(2) == 1, rng.Intn(2) == 1}
		entries := make([]KeyedEntry, n)
		for i := range entries {
			k1 := intv(int64(rng.Intn(20)))
			k2 := intv(int64(rng.Intn(5)))
			entries[i] = KeyedEntry{Keys: []values.Value{k1, k2}, Elem: intv(int64(i))}
		}
		offset := rng.Intn(5)
		limit := rng.Intn(10)

		acc := NewTopKAcc(desc, offset+limit)
		for _, e := range entries {
			acc.Add(e.Keys, e.Elem)
		}
		got := acc.Finalize(offset, limit, false)
		want := referenceTopK(entries, desc, offset, limit)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d elems, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if !values.Equal(got[i], want[i]) {
				t.Fatalf("trial %d: elem %d = %s, want %s", trial, i, got[i], want[i])
			}
		}
	}
}

func TestTopKAccMergePartialsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entries := make([]KeyedEntry, 500)
	for i := range entries {
		entries[i] = KeyedEntry{
			Keys: []values.Value{intv(int64(rng.Intn(40)))},
			Elem: intv(int64(i % 100)), // duplicate elements across partials
		}
	}
	desc := []bool{false}
	want := referenceTopK(entries, desc, 3, 17)

	for _, workers := range []int{1, 2, 7, 16} {
		partials := make([]*TopKAcc, workers)
		for w := range partials {
			partials[w] = NewTopKAcc(desc, 20)
		}
		for i, e := range entries {
			partials[i%workers].Add(e.Keys, e.Elem)
		}
		root := NewTopKAcc(desc, 20)
		for _, p := range partials {
			root.MergeFrom(p)
		}
		got := root.Finalize(3, 17, false)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %d elems, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if !values.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d: elem %d = %s, want %s", workers, i, got[i], want[i])
			}
		}
	}
}

func TestTopKAccDedup(t *testing.T) {
	acc := NewTopKAcc([]bool{false}, -1)
	acc.Add([]values.Value{intv(2)}, values.NewString("b"))
	acc.Add([]values.Value{intv(1)}, values.NewString("a"))
	acc.Add([]values.Value{intv(3)}, values.NewString("a")) // dup elem, worse key
	acc.Add([]values.Value{intv(4)}, values.NewString("c"))
	got := acc.Finalize(0, -1, true)
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %d elems, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Str() != want[i] {
			t.Fatalf("elem %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestTopKAccOffsetBeyondEnd(t *testing.T) {
	acc := NewTopKAcc([]bool{false}, 5)
	acc.Add([]values.Value{intv(1)}, intv(1))
	if got := acc.Finalize(10, 3, false); len(got) != 0 {
		t.Fatalf("offset beyond end: got %d elems", len(got))
	}
}

func TestTopKAccZeroKeep(t *testing.T) {
	acc := NewTopKAcc([]bool{false}, 0)
	acc.Add([]values.Value{intv(1)}, intv(1))
	if acc.Len() != 0 {
		t.Fatalf("keep=0 retained %d entries", acc.Len())
	}
}

func TestTopKMonoidStillRanksDescending(t *testing.T) {
	m := TopK(3)
	res := Fold(m, []values.Value{intv(5), intv(9), intv(1), intv(7), intv(3)})
	want := []int64{9, 7, 5}
	if res.Len() != 3 {
		t.Fatalf("top3 kept %d", res.Len())
	}
	for i, e := range res.Elems() {
		if e.Int() != want[i] {
			t.Fatalf("elem %d = %d, want %d", i, e.Int(), want[i])
		}
	}
}

// TestTopKAccWorstIsTheBar: once full, Worst reports the keys of the
// entry Finalize would rank last — exactly the bar Competitive applies
// — and an unfilled or unbounded accumulator reports none.
func TestTopKAccWorstIsTheBar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		desc := []bool{rng.Intn(2) == 1}
		keep := 1 + rng.Intn(8)
		acc := NewTopKAcc(desc, keep)
		if _, full := NewTopKAcc(desc, -1).Worst(); full {
			t.Fatal("unbounded accumulator reported a bar")
		}
		for i := 0; i < 40; i++ {
			k := intv(rng.Int63n(20))
			_, full := acc.Worst()
			if full != (acc.Len() == keep) {
				t.Fatalf("full = %v with %d of %d entries", full, acc.Len(), keep)
			}
			acc.Add([]values.Value{k}, intv(int64(i)))
		}
		worst, full := acc.Worst()
		if !full {
			t.Fatal("full accumulator reported no bar")
		}
		// A key strictly beyond the bar never competes; the bar's own
		// key ties and competes.
		if !acc.Competitive(worst) {
			t.Fatalf("bar %v not competitive against itself", worst)
		}
		beyond := intv(worst[0].Int() + 1)
		if desc[0] {
			beyond = intv(worst[0].Int() - 1)
		}
		if acc.Competitive([]values.Value{beyond}) {
			t.Fatalf("key %v beyond the bar %v competes (desc=%v)", beyond, worst, desc[0])
		}
	}
}
