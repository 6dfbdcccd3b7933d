package mcl

import "vida/internal/values"

// BindParams returns e with every ParamExpr whose name appears in params
// replaced by the bound constant. Parameters not present in the map are
// left in place (callers validate completeness separately). A binary
// expression whose operands are both constants once bound folds (see
// foldBound). The input expression is never mutated: shared subtrees
// are safe, which is what lets one cached plan serve concurrent
// executions with different bindings.
func BindParams(e Expr, params map[string]values.Value) Expr {
	if e == nil || len(params) == 0 {
		return e
	}
	switch n := e.(type) {
	case *NullExpr, *ConstExpr, *VarExpr, *ZeroExpr:
		return e
	case *ParamExpr:
		v, ok := params[n.Name]
		if !ok {
			return e
		}
		if v.IsNull() {
			return &NullExpr{}
		}
		return &ConstExpr{Val: v}
	case *ProjExpr:
		return &ProjExpr{Rec: BindParams(n.Rec, params), Attr: n.Attr}
	case *RecordExpr:
		fields := make([]FieldExpr, len(n.Fields))
		for i, f := range n.Fields {
			fields[i] = FieldExpr{Name: f.Name, Val: BindParams(f.Val, params)}
		}
		return &RecordExpr{Fields: fields}
	case *IfExpr:
		return &IfExpr{
			Cond: BindParams(n.Cond, params),
			Then: BindParams(n.Then, params),
			Else: BindParams(n.Else, params),
		}
	case *BinExpr:
		return foldBound(&BinExpr{Op: n.Op, L: BindParams(n.L, params), R: BindParams(n.R, params)})
	case *NotExpr:
		return &NotExpr{E: BindParams(n.E, params)}
	case *NegExpr:
		return &NegExpr{E: BindParams(n.E, params)}
	case *LambdaExpr:
		return &LambdaExpr{Param: n.Param, Body: BindParams(n.Body, params)}
	case *ApplyExpr:
		return &ApplyExpr{Fn: BindParams(n.Fn, params), Arg: BindParams(n.Arg, params)}
	case *CallExpr:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = BindParams(a, params)
		}
		return &CallExpr{Name: n.Name, Args: args}
	case *SingletonExpr:
		return &SingletonExpr{M: n.M, E: BindParams(n.E, params)}
	case *MergeExpr:
		return &MergeExpr{M: n.M, L: BindParams(n.L, params), R: BindParams(n.R, params)}
	case *IndexExpr:
		idxs := make([]Expr, len(n.Idxs))
		for i, ix := range n.Idxs {
			idxs[i] = BindParams(ix, params)
		}
		return &IndexExpr{Arr: BindParams(n.Arr, params), Idxs: idxs}
	case *Comprehension:
		qs := make([]Qualifier, len(n.Qs))
		for i, q := range n.Qs {
			qs[i] = Qualifier{Var: q.Var, Bind: q.Bind, Src: BindParams(q.Src, params)}
		}
		order := make([]OrderKey, len(n.Order))
		for i, k := range n.Order {
			order[i] = OrderKey{E: BindParams(k.E, params), Desc: k.Desc}
		}
		groupBy := make([]GroupKey, len(n.GroupBy))
		for i, k := range n.GroupBy {
			groupBy[i] = GroupKey{Name: k.Name, E: BindParams(k.E, params)}
		}
		aggs := make([]AggSpec, len(n.Aggs))
		for i, a := range n.Aggs {
			aggs[i] = AggSpec{Name: a.Name, M: a.M, E: BindParams(a.E, params)}
		}
		return &Comprehension{
			M: n.M, Head: BindParams(n.Head, params), Qs: qs,
			GroupBy: groupBy, Aggs: aggs,
			Having: BindParams(n.Having, params),
			Order:  order,
			Limit:  BindParams(n.Limit, params),
			Offset: BindParams(n.Offset, params),
		}
	}
	return e
}

// foldBound folds a rebuilt binary expression whose operands are both
// constants now that its parameters are bound — `$1 + 1000` becomes one
// literal — with normalization's constFold: binding runs after
// normalization, which could not fold a hole, and the executors' typed
// kernels compare a column against a literal, not against constant
// arithmetic. A bound null folds like any constant (ApplyBinOp is total
// over nulls). A fold that fails (`$1 / 0`) leaves the expression as it
// is, so it errors exactly where the row engine evaluates it — and not
// at all over an empty input.
func foldBound(n *BinExpr) Expr {
	l, lok := boundConst(n.L)
	r, rok := boundConst(n.R)
	if !lok || !rok {
		return n
	}
	folded, ok := constFold(&BinExpr{Op: n.Op, L: l, R: r})
	if !ok {
		return n
	}
	if folded.(*ConstExpr).Val.IsNull() {
		return &NullExpr{}
	}
	return folded
}

// boundConst returns e as a ConstExpr when it is a constant: a literal,
// or the null literal a null binding becomes.
func boundConst(e Expr) (*ConstExpr, bool) {
	switch c := e.(type) {
	case *ConstExpr:
		return c, true
	case *NullExpr:
		return &ConstExpr{Val: values.Null}, true
	}
	return nil, false
}
