package sprout

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/tpch"
)

// TestInsertAfterQueryCrossesChunk: base tables take inserts between
// queries. Inserting across a column-chunk boundary after a query has
// scanned the table makes the next query see every row, under workers 1
// and 4 and in the row and columnar tiers. The 2047-row case also crosses
// the parallel-scan threshold, so its second query splits the scan.
func TestInsertAfterQueryCrossesChunk(t *testing.T) {
	for _, first := range []int{1023, 2047} {
		db := NewDB()
		r := db.MustCreateTable("R", IntCol("a"), IntCol("b"))
		s := db.MustCreateTable("S", IntCol("b"))
		pS := []float64{0.5, 0.25, 0.75}
		for b, p := range pS {
			s.MustInsert(p, Int(int64(b)))
		}
		pR := func(i int) float64 { return 0.1 + 0.8*float64(i%97)/97 }
		insert := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				r.MustInsert(pR(i), Int(int64(i)), Int(int64(i%3)))
			}
		}
		q := NewQuery("q").Select("a", "b").From("R", "a", "b").From("S", "b")
		check := func(n int) {
			t.Helper()
			if r.Len() != n {
				t.Fatalf("R.Len() = %d, want %d", r.Len(), n)
			}
			for _, style := range []PlanStyle{Lazy, Eager} {
				for _, workers := range []int{1, 4} {
					for _, rowExec := range []bool{false, true} {
						label := fmt.Sprintf("n=%d %v workers=%d rowExec=%v", n, style, workers, rowExec)
						opts := []RunOption{WithWorkers(workers)}
						if rowExec {
							opts = append(opts, WithRowExecution())
						}
						res, err := db.Run(q, style, opts...)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if len(res.Rows) != n {
							t.Fatalf("%s: %d answers, want %d", label, len(res.Rows), n)
						}
						seen := make([]bool, n)
						for _, row := range res.Rows {
							a, b := int(row.Values[0].I), int(row.Values[1].I)
							if a < 0 || a >= n || seen[a] || b != a%3 {
								t.Fatalf("%s: unexpected answer %v", label, row.Values)
							}
							seen[a] = true
							if want := pR(a) * pS[b]; math.Abs(row.Confidence-want) > 1e-12 {
								t.Fatalf("%s: conf(%d) = %g, want %g", label, a, row.Confidence, want)
							}
						}
					}
				}
			}
		}
		insert(0, first)
		check(first)
		insert(first, first+2)
		check(first + 2)
	}
}

// TestConcurrentScansOneCatalog: the column chunks of base tables are
// read-only state shared by every query over a catalog, and parallel chunk
// scans reach them from several goroutines at once. Many concurrent
// Prepared.Run calls over one in-memory TPC-H catalog — workers 1 and 4,
// lazy/eager/hybrid, row and columnar tiers — must each return exactly the
// serial run's rows and confidences. Run it under -race.
func TestConcurrentScansOneCatalog(t *testing.T) {
	d := tpch.Generate(tpch.Config{SF: 0.002, Seed: 1})
	cat := d.Catalog()
	entries := tpch.Catalog()
	type job struct {
		label string
		p     *plan.Prepared
		want  *table.Relation
	}
	var jobs []job
	for _, name := range []string{"3", "10", "18"} {
		e := entries[name]
		for _, style := range []plan.Style{plan.Lazy, plan.Eager, plan.Hybrid} {
			for _, workers := range []int{1, 4} {
				for _, rowExec := range []bool{false, true} {
					spec := plan.Spec{Style: style, Workers: workers, RowExec: rowExec}
					p, err := plan.Prepare(cat, e.Q, tpch.FDsFor(e), spec)
					if err != nil {
						t.Fatalf("q%s %v: %v", name, style, err)
					}
					res, err := p.Run(context.Background())
					if err != nil {
						t.Fatalf("q%s %v serial: %v", name, style, err)
					}
					label := fmt.Sprintf("q%s %v workers=%d rowExec=%v", name, style, workers, rowExec)
					jobs = append(jobs, job{label, p, res.Rows})
				}
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		for _, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := j.p.Run(context.Background())
				if err != nil {
					t.Errorf("%s concurrent: %v", j.label, err)
					return
				}
				if err := sameBits(res.Rows, j.want); err != nil {
					t.Errorf("%s concurrent: %v", j.label, err)
				}
			}()
		}
	}
	wg.Wait()
}

// sameBits reports the first cell where two relations differ, comparing
// floats by their bit patterns.
func sameBits(got, want *table.Relation) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, want %d", got.Len(), want.Len())
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		for c := range w {
			if g[c].Kind != w[c].Kind || g[c].I != w[c].I || g[c].S != w[c].S ||
				math.Float64bits(g[c].F) != math.Float64bits(w[c].F) {
				return fmt.Errorf("row %d col %d = %v, want %v", i, c, g[c], w[c])
			}
		}
	}
	return nil
}
