package plan

import (
	"fmt"
	"math"

	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/query"
	"repro/internal/table"
)

// This file lowers probability-mode logical plans — the MystiQ safe plans
// of Fig. 2 (§VII), built by buildSafe — to the physical engine: the join
// order follows the hierarchy of the query tree (deepest subqueries first),
// every join and leaf is capped by an independent projection π^ind that
// eliminates duplicates and aggregates their probabilities, and — unlike
// SPROUT — no variable columns exist: correctness rests entirely on the
// restrictive join order guaranteeing that duplicates are independent.
// Probabilities are aggregated with MystiQ's 1-POWER(10, SUM(log10(1.001-p)))
// formula, whose runtime failures on large groups (§VII) are reproduced as
// errors.

// safeProbCol is the single probability column safe plans carry.
const safeProbCol = "P"

// lowerSafe executes a ModeProb logical plan.
func lowerSafe(ex exec, c *Catalog, q *query.Query, b *built, spec Spec) (*Result, error) {
	root, ok := b.lp.Root.(*logical.Conf)
	if !ok || root.Alg != logical.AlgIndProject || !root.Final {
		return nil, fmt.Errorf("plan: safe plan for %s lacks the final π^ind", q.Name)
	}
	t0 := statsNow()
	s := &safeLower{cat: c, q: q, ex: ex}
	op, err := s.node(root.Input)
	if err != nil {
		return nil, err
	}
	// Final independent projection onto the head attributes.
	op, err = s.indProject(op, root.Keep)
	if err != nil {
		return nil, err
	}
	rel, err := engine.CollectCtx(ex.ctx, op)
	if err != nil {
		return nil, err
	}
	// MystiQ's aggregate fails at runtime on groups of many near-certain
	// events (log-sum underflow) — surface that as an error, as in §VII.
	pi := rel.Schema.ColIndex(safeProbCol)
	for _, row := range rel.Rows {
		if math.IsNaN(row[pi].F) || math.IsInf(row[pi].F, 0) {
			return nil, fmt.Errorf("plan: MystiQ runtime error: probability aggregate under/overflowed (query %s)", q.Name)
		}
	}
	// Rename the probability column to conf for a uniform Result shape.
	out := table.NewRelation(func() *table.Schema {
		cols := append([]table.Column(nil), rel.Schema.Cols...)
		cols[pi] = table.DataCol(conf.ConfCol, table.KindFloat)
		return table.NewSchema(cols...)
	}())
	out.Rows = rel.Rows
	out, err = normalizeAnswer(out, q)
	if err != nil {
		return nil, err
	}
	total := statsSince(t0)
	if sp := ex.span("safe plan"); sp != nil {
		sp.Str("tree", b.tree.String())
		sp.Int("aggregations", int64(s.aggregations))
		sp.Int("max_intermediate", s.maxIntermediate)
		sp.Int("rows", int64(out.Len()))
		sp.SetDur(total)
	}
	return &Result{
		Rows: out,
		Stats: Stats{
			Plan:           fmt.Sprintf("mystiq safe plan over tree %s", b.tree),
			Signature:      "(safe plan; no signature)",
			TupleTime:      total,
			ProbTime:       0, // interleaved with tuple computation in safe plans
			AnswerTuples:   s.maxIntermediate,
			DistinctTuples: int64(out.Len()),
			Scans:          s.aggregations,
		},
	}, nil
}

// safeLower walks the probability-mode IR, building engine operators.
type safeLower struct {
	cat             *Catalog
	q               *query.Query
	ex              exec
	maxIntermediate int64
	aggregations    int
}

// node lowers one IR subtree to an operator whose schema is the node's kept
// attributes plus the P column.
func (s *safeLower) node(n logical.Node) (engine.Operator, error) {
	switch x := n.(type) {
	case *logical.Conf:
		in, err := s.node(x.Input)
		if err != nil {
			return nil, err
		}
		return s.indProject(in, x.Keep)
	case *logical.Project:
		if j, ok := x.Input.(*logical.Join); ok {
			left, err := s.node(j.Left)
			if err != nil {
				return nil, err
			}
			right, err := s.node(j.Right)
			if err != nil {
				return nil, err
			}
			return s.join(left, right, x.Attrs)
		}
		return s.leaf(x)
	default:
		return nil, fmt.Errorf("plan: cannot lower safe-plan node %T", n)
	}
}

// leaf lowers a leaf pipeline: scan → filter → projection to kept attrs +
// P. The variable column is dropped and P(ref) renamed to the bare P
// column: MystiQ works on probabilistic tables without variable columns
// (§V).
func (s *safeLower) leaf(p *logical.Project) (engine.Operator, error) {
	ref, ok := scanRefUnder(p)
	if !ok {
		return nil, fmt.Errorf("plan: safe-plan leaf %s has no scan", p.Label())
	}
	op, err := s.cat.Scan(ref)
	if err != nil {
		return nil, err
	}
	sc := op.Schema()
	var preds engine.And
	for _, sel := range s.q.Sels {
		if sel.Rel != ref.Name {
			continue
		}
		idx := sc.ColIndex(sel.Attr)
		if idx < 0 {
			return nil, fmt.Errorf("plan: selection attribute %s missing from %s", sel.Attr, ref.Name)
		}
		preds = append(preds, engine.Cmp{L: engine.ColRef{Idx: idx, Name: sel.Attr}, Op: sel.Op, R: engine.Const{V: sel.Val}})
	}
	if len(preds) > 0 {
		op = engine.NewFilter(op, preds)
	}
	names := append(append([]string(nil), p.Attrs...), "P("+ref.Name+")")
	proj, err := engine.NewColumnProject(op, names)
	if err != nil {
		return nil, err
	}
	ps := proj.Schema()
	cols := append([]table.Column(nil), ps.Cols...)
	cols[len(cols)-1] = table.DataCol(safeProbCol, table.KindFloat)
	var exprs []engine.Expr
	for i, c := range ps.Cols {
		exprs = append(exprs, engine.ColRef{Idx: i, Name: c.Name})
	}
	return engine.NewProject(proj, table.NewSchema(cols...), exprs)
}

// join combines two safe subplans: equi-join on shared attributes, multiply
// probabilities, project to keep, materialize.
func (s *safeLower) join(left, right engine.Operator, keep []string) (engine.Operator, error) {
	ls, rs := left.Schema(), right.Schema()
	var lk, rk []int
	for i, lc := range ls.Cols {
		if lc.Name == safeProbCol {
			continue
		}
		j := rs.ColIndex(lc.Name)
		if j >= 0 && rs.Cols[j].Name != safeProbCol {
			lk = append(lk, i)
			rk = append(rk, j)
		}
	}
	j, err := engine.NewHashJoin(left, right, lk, rk)
	if err != nil {
		return nil, err
	}
	j.Mem, j.SortBudget, j.TmpDir, j.Ctx = s.ex.mem, s.ex.sortBudget, s.ex.tmpDir, s.ex.ctx
	js := j.Schema()
	lpi := ls.ColIndex(safeProbCol)
	rpi := len(ls.Cols) + rs.ColIndex(safeProbCol)
	var exprs []engine.Expr
	var cols []table.Column
	seen := make(map[string]bool)
	for _, a := range keep {
		idx := js.ColIndex(a)
		if idx < 0 || seen[a] {
			continue
		}
		seen[a] = true
		exprs = append(exprs, engine.ColRef{Idx: idx, Name: a})
		cols = append(cols, js.Cols[idx])
	}
	exprs = append(exprs, engine.Mul{L: engine.ColRef{Idx: lpi, Name: "Pl"}, R: engine.ColRef{Idx: rpi, Name: "Pr"}})
	cols = append(cols, table.DataCol(safeProbCol, table.KindFloat))
	proj, err := engine.NewProject(j, table.NewSchema(cols...), exprs)
	if err != nil {
		return nil, err
	}
	mat, err := engine.CollectCtx(s.ex.ctx, proj)
	if err != nil {
		return nil, err
	}
	if int64(mat.Len()) > s.maxIntermediate {
		s.maxIntermediate = int64(mat.Len())
	}
	return engine.NewMemScan(mat), nil
}

// indProject is MystiQ's independent projection: group by the kept
// attributes and aggregate the probabilities of the (assumed independent)
// duplicates with the log-based formula.
func (s *safeLower) indProject(in engine.Operator, keep []string) (engine.Operator, error) {
	s.aggregations++
	sc := in.Schema()
	var groupBy []int
	for _, a := range keep {
		idx := sc.ColIndex(a)
		if idx < 0 {
			return nil, fmt.Errorf("plan: π^ind attribute %s missing from %v", a, sc.Names())
		}
		groupBy = append(groupBy, idx)
	}
	pi := sc.ColIndex(safeProbCol)
	if pi < 0 {
		return nil, fmt.Errorf("plan: π^ind input lacks P column: %v", sc.Names())
	}
	return engine.GroupSorted(in, groupBy, []engine.AggSpec{
		{Kind: engine.AggLogOr, Col: pi, Out: table.DataCol(safeProbCol, table.KindFloat)},
	}), nil
}
