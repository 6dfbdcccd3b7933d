package mcl

import (
	"strings"
	"testing"

	"vida/internal/values"
)

func TestParseParams(t *testing.T) {
	e, err := Parse(`for { p <- People, p.age > $min, p.name = $1 } yield bag p.id`)
	if err != nil {
		t.Fatal(err)
	}
	got := Params(e)
	if len(got) != 2 || got[0] != "min" || got[1] != "1" {
		t.Fatalf("Params = %v, want [min 1]", got)
	}
	// Round-trip: the rendering re-parses to the same parameters.
	e2, err := Parse(e.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", e.String(), err)
	}
	got2 := Params(e2)
	if len(got2) != 2 || got2[0] != "min" || got2[1] != "1" {
		t.Fatalf("re-parsed Params = %v", got2)
	}
}

func TestParamLexErrors(t *testing.T) {
	if _, err := Parse(`for { p <- T, p.x > $ } yield sum 1`); err == nil {
		t.Fatal("bare $ should fail to lex")
	}
}

func TestParamsTypeCheckAsHoles(t *testing.T) {
	e := MustParse(`for { p <- People, p.age > $min } yield sum 1`)
	env := NewTypeEnv(nil)
	// People unbound → error mentions People, not the parameter.
	if _, err := Check(e, env); err == nil {
		t.Fatal("unbound source should fail")
	}
}

func TestBindParamsSubstitutes(t *testing.T) {
	e := MustParse(`for { p <- People, p.age > $min } yield bag ($min + p.age)`)
	bound := BindParams(e, map[string]values.Value{"min": values.NewInt(40)})
	if len(Params(bound)) != 0 {
		t.Fatalf("parameters survive binding: %s", bound)
	}
	// The original is untouched (shared plans must stay reusable).
	if len(Params(e)) != 1 {
		t.Fatalf("BindParams mutated its input: %s", e)
	}
	// Null binds to the null literal.
	e2 := MustParse(`for { p <- People, p.age = $x } yield sum 1`)
	bound2 := BindParams(e2, map[string]values.Value{"x": values.Null})
	if len(Params(bound2)) != 0 {
		t.Fatalf("null binding left a hole: %s", bound2)
	}
}

func TestNormalizePreservesParams(t *testing.T) {
	e := MustParse(`for { p <- People, p.age > $min and p.id < $max } yield sum 1`)
	n := Normalize(e)
	got := Params(n)
	if len(got) != 2 {
		t.Fatalf("normalization dropped parameters: %v in %s", got, n)
	}
	// Unbound parameters surviving to evaluation error out clearly.
	if _, err := Eval(&ParamExpr{Name: "min"}, NewEnv(nil)); err == nil {
		t.Fatal("evaluating an unbound parameter should fail")
	}
}

func TestBindParamsFoldsBoundConstants(t *testing.T) {
	e := MustParse(`for { p <- People, p.id < $1 + 1000, p.w > $1 * 2.5 } yield sum 1`)
	bound := BindParams(e, map[string]values.Value{"1": values.NewInt(7)}).String()
	for _, want := range []string{"p.id < 1007", "p.w > 17.5"} {
		if !strings.Contains(bound, want) {
			t.Fatalf("bound %s: want folded %q", bound, want)
		}
	}
	// A null binding folds arithmetic to null and comparisons to false.
	nullE := MustParse(`for { p <- People, p.id < $1 + 1000 } yield sum ($1 = 1)`)
	nb := BindParams(nullE, map[string]values.Value{"1": values.Null}).String()
	for _, want := range []string{"p.id < null", "sum false"} {
		if !strings.Contains(nb, want) {
			t.Fatalf("null-bound %s: want %q", nb, want)
		}
	}
	// A fold that errors stays unfolded: the division errors at
	// evaluation, per row, as it would without binding.
	div := BindParams(MustParse(`$1 / 0`), map[string]values.Value{"1": values.NewInt(3)})
	if _, ok := div.(*BinExpr); !ok {
		t.Fatalf("$1 / 0 folded to %s", div)
	}
	if _, err := Eval(div, NewEnv(nil)); err == nil {
		t.Fatal("bound $1 / 0 evaluated without error")
	}
}
