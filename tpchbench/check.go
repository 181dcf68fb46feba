package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/conf"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/table"
)

// exactTol is how far an exact confidence may stray from the reference.
// Exact styles agree to within a few ulps (measured spread ≤ 3.3e-16).
const exactTol = 1e-9

// reference is a query's correct answer: confidence by answer key.
type reference struct {
	conf map[string]float64
}

// answerKeys renders each row's head columns as a map key, and returns the
// column index of the confidence. Columns are found by name, so relations
// in either the plan's normalized order or the operator's raw order work.
func answerKeys(q *query.Query, rel *table.Relation) ([]string, int, error) {
	idx := make([]int, len(q.Head))
	for i, name := range q.Head {
		if idx[i] = rel.Schema.ColIndex(name); idx[i] < 0 {
			return nil, 0, fmt.Errorf("answer lacks head column %q (has %v)", name, rel.Schema.Names())
		}
	}
	ci := rel.Schema.ColIndex(conf.ConfCol)
	if ci < 0 {
		return nil, 0, fmt.Errorf("answer lacks the %s column", conf.ConfCol)
	}
	keys := make([]string, len(rel.Rows))
	var b strings.Builder
	for r, row := range rel.Rows {
		b.Reset()
		for _, i := range idx {
			b.WriteString(row[i].String())
			b.WriteByte(0)
		}
		keys[r] = b.String()
	}
	return keys, ci, nil
}

func newReference(q *query.Query, rel *table.Relation) (*reference, error) {
	keys, ci, err := answerKeys(q, rel)
	if err != nil {
		return nil, err
	}
	r := &reference{conf: make(map[string]float64, len(keys))}
	for i, k := range keys {
		if _, dup := r.conf[k]; dup {
			return nil, fmt.Errorf("duplicate answer %q", k)
		}
		r.conf[k] = rel.Rows[i][ci].F
	}
	return r, nil
}

// answer is one execution's output with the guarantee it claims.
type answer struct {
	rows *table.Relation
	// exact marks exact confidences. Otherwise tol is the claimed additive
	// guarantee: the Monte Carlo ε, or half the widest certified [lo, hi]
	// interval of a bounded OBDD or d-tree run.
	exact bool
	tol   float64
	// delta is the probability with which each answer may miss tol: the
	// Monte Carlo δ. It is 0 for certified guarantees.
	delta float64
}

// fromStats reads the guarantee a plan run claims from its Stats; delta is
// the δ its spec asked of the Monte Carlo tier.
func fromStats(rows *table.Relation, s *plan.Stats, delta float64) answer {
	if !s.Approximate {
		return answer{rows: rows, exact: true}
	}
	if s.Epsilon > 0 {
		return answer{rows: rows, tol: s.Epsilon, delta: delta}
	}
	return answer{rows: rows, tol: s.MaxWidth / 2}
}

// allowedMisses is how many of n answers may miss an (ε, δ) guarantee
// before the run is judged wrong: the smallest k with P[Binomial(n, δ) > k]
// below one in a million. A correct sampler misses ε on some answers — with
// ε = 0.05, δ = 0.01 the unsafe query misses it on one to three of its
// ~2300 answers — so a per-answer check would fail correct runs.
func allowedMisses(n int, delta float64) int {
	if delta <= 0 || n == 0 {
		return 0
	}
	// Walk the pmf upwards in log space until the remaining tail is small.
	logPmf := float64(n) * math.Log1p(-delta) // P[X = 0]
	cdf := math.Exp(logPmf)
	for k := 0; k < n; k++ {
		if 1-cdf <= 1e-6 {
			return k
		}
		logPmf += math.Log(float64(n-k)/float64(k+1)) + math.Log(delta) - math.Log1p(-delta)
		cdf += math.Exp(logPmf)
	}
	return n
}

// check compares an answer with the reference: the same answer set, and
// every confidence within the guarantee the run claims. A Monte Carlo run
// may miss ε on as many answers as δ allows (allowedMisses), and on none
// by more than 2ε.
func (r *reference) check(q *query.Query, a answer) error {
	keys, ci, err := answerKeys(q, a.rows)
	if err != nil {
		return err
	}
	if len(keys) != len(r.conf) {
		return fmt.Errorf("%d answers, reference has %d", len(keys), len(r.conf))
	}
	tol, hard := exactTol, exactTol
	if !a.exact {
		tol += a.tol
		if a.delta > 0 {
			hard += 2 * a.tol
		} else {
			hard = tol
		}
	}
	misses := 0
	seen := make(map[string]bool, len(keys))
	for i, k := range keys {
		want, ok := r.conf[k]
		if !ok || seen[k] {
			return fmt.Errorf("answer %q is missing from the reference or repeated", k)
		}
		seen[k] = true
		got := a.rows.Rows[i][ci].F
		d := math.Abs(got - want)
		if !(d <= hard) {
			return fmt.Errorf("answer %q: confidence %.17g, reference %.17g (|Δ| %.3g > %.3g)", k, got, want, d, hard)
		}
		if d > tol {
			misses++
		}
	}
	if allowed := allowedMisses(len(keys), a.delta); misses > allowed {
		return fmt.Errorf("%d of %d answers miss the claimed ±%.3g (δ = %g allows %d)", misses, len(keys), tol, a.delta, allowed)
	}
	return nil
}
