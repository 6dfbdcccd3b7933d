package jit

import (
	"fmt"
	"sync"

	"vida/internal/algebra"
	"vida/internal/mcl"
	"vida/internal/monoid"
	"vida/internal/values"
)

// StaticExecutor is the pre-cooked engine: generic Volcano operators, one
// goroutine per operator, rows (as interpreter environments) flowing
// through Go channels, and every expression evaluated by walking its AST.
// It is intentionally generic — the interpretation overhead it carries on
// every row is precisely what the paper's just-in-time generation removes
// (§4: "a 'pre-cooked' operator offering all these capabilities must be
// very generic, thus introducing significant interpretation overhead").
type StaticExecutor struct {
	// ChanBuf is the channel buffer size between operators (default 64).
	ChanBuf int
}

type staticCtx struct {
	cat     algebra.Catalog
	base    *mcl.Env
	buf     int
	mu      sync.Mutex
	err     error
	stopped chan struct{}
	once    sync.Once
}

func (sc *staticCtx) fail(err error) {
	sc.mu.Lock()
	if sc.err == nil {
		sc.err = err
	}
	sc.mu.Unlock()
	sc.once.Do(func() { close(sc.stopped) })
}

func (sc *staticCtx) failed() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.err
}

// send delivers a row unless the pipeline has been stopped.
func (sc *staticCtx) send(out chan<- *mcl.Env, row *mcl.Env) bool {
	select {
	case out <- row:
		return true
	case <-sc.stopped:
		return false
	}
}

// Run implements algebra.Executor.
func (s StaticExecutor) Run(p *algebra.Reduce, cat algebra.Catalog) (values.Value, error) {
	buf := s.ChanBuf
	if buf <= 0 {
		buf = 64
	}
	c := &compiler{cat: cat}
	base, err := c.materializeFreeSources(p)
	if err != nil {
		return values.Null, err
	}
	sc := &staticCtx{cat: cat, base: base, buf: buf, stopped: make(chan struct{})}

	rows := sc.launch(p.Input)
	if p.Grouped() {
		// Grouped reduce: a grouping operator drains the pipeline into
		// per-group accumulators and re-emits one row per group (keys and
		// aggregates as bindings), so the fold below — including Pred,
		// which carries HAVING — runs unchanged over group rows.
		rows = sc.groupRows(p, rows)
	}
	if p.Order.Ordered() {
		return s.runOrdered(p, sc, rows)
	}
	acc := monoid.NewCollector(p.M)
	for env := range rows {
		if p.Pred != nil {
			pv, err := mcl.Eval(p.Pred, env)
			if err != nil {
				sc.fail(err)
				break
			}
			if !(pv.Kind() == values.KindBool && pv.Bool()) {
				continue
			}
		}
		h, err := mcl.Eval(p.Head, env)
		if err != nil {
			sc.fail(err)
			break
		}
		acc.Add(h)
	}
	// Drain in case of early exit so upstream goroutines unblock.
	sc.once.Do(func() { close(sc.stopped) })
	for range rows {
	}
	if err := sc.failed(); err != nil {
		return values.Null, err
	}
	res := acc.Result()
	if p.Order != nil {
		// Bare LIMIT/OFFSET: the static executor materializes, then
		// slices (pushdown into the channel pipeline is a JIT feature).
		return algebra.SliceCollection(res, p.Order)
	}
	return res, nil
}

// runOrdered folds the channel pipeline's rows through the keyed top-k
// accumulator (ORDER BY/LIMIT/OFFSET under the static executor).
func (s StaticExecutor) runOrdered(p *algebra.Reduce, sc *staticCtx, rows <-chan *mcl.Env) (values.Value, error) {
	// Same retention rules as the JIT root (resolveOrder): keep =
	// offset+limit only with a limit present, set dedup disables the
	// heap bound.
	limit, offset, keep, dedup, err := resolveOrder(p)
	if err != nil {
		sc.once.Do(func() { close(sc.stopped) })
		for range rows {
		}
		return values.Null, err
	}
	desc := make([]bool, len(p.Order.Keys))
	for i, k := range p.Order.Keys {
		desc[i] = k.Desc
	}
	acc := monoid.NewTopKAcc(desc, keep)
	for env := range rows {
		if p.Pred != nil {
			pv, err := mcl.Eval(p.Pred, env)
			if err != nil {
				sc.fail(err)
				break
			}
			if !(pv.Kind() == values.KindBool && pv.Bool()) {
				continue
			}
		}
		keys := make([]values.Value, len(p.Order.Keys))
		failed := false
		for i, k := range p.Order.Keys {
			kv, err := mcl.Eval(k.E, env)
			if err != nil {
				sc.fail(err)
				failed = true
				break
			}
			keys[i] = kv
		}
		if failed {
			break
		}
		h, err := mcl.Eval(p.Head, env)
		if err != nil {
			sc.fail(err)
			break
		}
		acc.Add(keys, h)
	}
	sc.once.Do(func() { close(sc.stopped) })
	for range rows {
	}
	if err := sc.failed(); err != nil {
		return values.Null, err
	}
	return values.NewList(acc.Finalize(offset, limit, dedup)...), nil
}

// groupRows is the static executor's grouping operator: it blocks on
// the input channel building the group table (same hash/equality/null
// semantics as the interpreter's grouped fold), then emits one
// environment per group in first-occurrence order, binding each key and
// aggregate result by name on the base environment.
func (sc *staticCtx) groupRows(p *algebra.Reduce, in <-chan *mcl.Env) <-chan *mcl.Env {
	out := make(chan *mcl.Env, sc.buf)
	go func() {
		defer close(out)
		type group struct {
			keys []values.Value
			accs []*monoid.Collector
		}
		index := map[uint64][]int{}
		var groups []*group
		for env := range in {
			keys := make([]values.Value, len(p.GroupBy))
			failed := false
			for i, k := range p.GroupBy {
				kv, err := mcl.Eval(k.E, env)
				if err != nil {
					sc.fail(err)
					failed = true
					break
				}
				keys[i] = kv
			}
			if failed {
				break
			}
			h := mcl.GroupHash(keys)
			var g *group
			for _, gi := range index[h] {
				if mcl.GroupKeysEqual(groups[gi].keys, keys) {
					g = groups[gi]
					break
				}
			}
			if g == nil {
				g = &group{keys: keys, accs: make([]*monoid.Collector, len(p.Aggs))}
				for i, a := range p.Aggs {
					g.accs[i] = monoid.NewCollector(a.M)
				}
				index[h] = append(index[h], len(groups))
				groups = append(groups, g)
			}
			for i, a := range p.Aggs {
				av, err := mcl.Eval(a.E, env)
				if err != nil {
					sc.fail(err)
					failed = true
					break
				}
				monoid.AggAdd(g.accs[i], av)
			}
			if failed {
				break
			}
		}
		for range in {
		}
		if sc.failed() != nil {
			return
		}
		for _, g := range groups {
			genv := sc.base
			for i, k := range p.GroupBy {
				genv = genv.Bind(k.Name, g.keys[i])
			}
			for i, a := range p.Aggs {
				genv = genv.Bind(a.Name, g.accs[i].Result())
			}
			if !sc.send(out, genv) {
				return
			}
		}
	}()
	return out
}

// launch starts the operator goroutine for a plan node and returns its
// output channel. A nil plan produces the single base row.
func (sc *staticCtx) launch(p algebra.Plan) <-chan *mcl.Env {
	out := make(chan *mcl.Env, sc.buf)
	switch n := p.(type) {
	case nil:
		go func() {
			defer close(out)
			sc.send(out, sc.base)
		}()
	case *algebra.Scan:
		go sc.runScan(n, out)
	case *algebra.Select:
		in := sc.launch(n.Input)
		go sc.runSelect(n, in, out)
	case *algebra.Bind:
		in := sc.launch(n.Input)
		go sc.runBind(n, in, out)
	case *algebra.Generate:
		var in <-chan *mcl.Env
		if n.Input != nil {
			in = sc.launch(n.Input)
		}
		go sc.runGenerate(n, in, out)
	case *algebra.Product:
		go sc.runProduct(n, sc.launch(n.R), out)
	case *algebra.Join:
		go sc.runJoin(n, sc.launch(n.R), out)
	default:
		go func() {
			defer close(out)
			sc.fail(fmt.Errorf("static: unknown plan node %T", p))
		}()
	}
	return out
}

func (sc *staticCtx) runScan(n *algebra.Scan, out chan<- *mcl.Env) {
	defer close(out)
	src, ok := sc.cat.Source(n.Source)
	if !ok {
		sc.fail(fmt.Errorf("static: unknown source %q", n.Source))
		return
	}
	stop := fmt.Errorf("static: stopped")
	err := src.Iterate(n.Fields, func(v values.Value) error {
		env := sc.base.Bind(n.Var, v)
		if n.Filter != nil {
			pv, err := mcl.Eval(n.Filter, env)
			if err != nil {
				return err
			}
			if !(pv.Kind() == values.KindBool && pv.Bool()) {
				return nil
			}
		}
		if !sc.send(out, env) {
			return stop
		}
		return nil
	})
	if err != nil && err != stop {
		sc.fail(err)
	}
}

func (sc *staticCtx) runSelect(n *algebra.Select, in <-chan *mcl.Env, out chan<- *mcl.Env) {
	defer close(out)
	for env := range in {
		pv, err := mcl.Eval(n.Pred, env)
		if err != nil {
			sc.fail(err)
			break
		}
		if pv.Kind() == values.KindBool && pv.Bool() {
			if !sc.send(out, env) {
				break
			}
		}
	}
	for range in {
	}
}

func (sc *staticCtx) runBind(n *algebra.Bind, in <-chan *mcl.Env, out chan<- *mcl.Env) {
	defer close(out)
	for env := range in {
		v, err := mcl.Eval(n.E, env)
		if err != nil {
			sc.fail(err)
			break
		}
		if !sc.send(out, env.Bind(n.Var, v)) {
			break
		}
	}
	for range in {
	}
}

func (sc *staticCtx) runGenerate(n *algebra.Generate, in <-chan *mcl.Env, out chan<- *mcl.Env) {
	defer close(out)
	process := func(env *mcl.Env) bool {
		coll, err := mcl.Eval(n.E, env)
		if err != nil {
			sc.fail(err)
			return false
		}
		if coll.IsNull() {
			return true
		}
		if !coll.IsCollection() && coll.Kind() != values.KindArray {
			sc.fail(fmt.Errorf("static: generate over %s", coll.Kind()))
			return false
		}
		for _, el := range coll.Elems() {
			if !sc.send(out, env.Bind(n.Var, el)) {
				return false
			}
		}
		return true
	}
	if in == nil {
		process(sc.base)
		return
	}
	for env := range in {
		if !process(env) {
			break
		}
	}
	for range in {
	}
}

// runProduct drains the right input before launching the left one, like
// runJoin: two scans of one cold source must not run at once, because the
// first would hold the source's first-touch build while blocked on a
// channel nobody reads yet.
func (sc *staticCtx) runProduct(n *algebra.Product, r <-chan *mcl.Env, out chan<- *mcl.Env) {
	defer close(out)
	rVars := algebra.BoundVars(n.R)
	var right []*mcl.Env
	for env := range r {
		right = append(right, env)
	}
	l := sc.launch(n.L)
	for lenv := range l {
		for _, renv := range right {
			env := lenv
			for _, v := range rVars {
				if val, ok := renv.Lookup(v); ok {
					env = env.Bind(v, val)
				}
			}
			if !sc.send(out, env) {
				goto done
			}
		}
	}
done:
	for range l {
	}
}

// runJoin builds its hash table from the right input, then launches and
// probes with the left one (see runProduct for why not both at once).
func (sc *staticCtx) runJoin(n *algebra.Join, r <-chan *mcl.Env, out chan<- *mcl.Env) {
	defer close(out)
	rVars := algebra.BoundVars(n.R)
	type bucket struct {
		keys []values.Value
		envs []*mcl.Env
	}
	keyOf := func(env *mcl.Env, exprs []mcl.Expr) (values.Value, bool, error) {
		parts := make([]values.Value, len(exprs))
		for i, e := range exprs {
			v, err := mcl.Eval(e, env)
			if err != nil {
				return values.Null, false, err
			}
			if v.IsNull() {
				return values.Null, false, nil
			}
			parts[i] = v
		}
		return values.NewList(parts...), true, nil
	}
	lExprs := make([]mcl.Expr, len(n.On))
	rExprs := make([]mcl.Expr, len(n.On))
	for i, on := range n.On {
		lExprs[i] = on.LExpr
		rExprs[i] = on.RExpr
	}
	table := map[uint64]*bucket{}
	for env := range r {
		k, ok, err := keyOf(env, rExprs)
		if err != nil {
			sc.fail(err)
			break
		}
		if !ok {
			continue
		}
		h := k.Hash()
		b := table[h]
		if b == nil {
			b = &bucket{}
			table[h] = b
		}
		b.keys = append(b.keys, k)
		b.envs = append(b.envs, env)
	}
	l := sc.launch(n.L)
	for lenv := range l {
		k, ok, err := keyOf(lenv, lExprs)
		if err != nil {
			sc.fail(err)
			break
		}
		if !ok {
			continue
		}
		b := table[k.Hash()]
		if b == nil {
			continue
		}
		for i, bk := range b.keys {
			if !values.Equal(k, bk) {
				continue
			}
			env := lenv
			for _, v := range rVars {
				if val, ok := b.envs[i].Lookup(v); ok {
					env = env.Bind(v, val)
				}
			}
			if n.Residual != nil {
				pv, err := mcl.Eval(n.Residual, env)
				if err != nil {
					sc.fail(err)
					goto done
				}
				if !(pv.Kind() == values.KindBool && pv.Bool()) {
					continue
				}
			}
			if !sc.send(out, env) {
				goto done
			}
		}
	}
done:
	for range l {
	}
	for range r {
	}
}
