// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VII) plus the ablations called out in DESIGN.md. Each BenchmarkFigNN
// group corresponds to one paper figure; cmd/sprout-bench prints the same
// data as formatted tables.
//
// The TPC-H scale factor defaults to 0.005 so the full suite runs in
// seconds; set SPROUT_BENCH_SF (e.g. 0.02 or 0.1) to approach the paper's
// SF 1 shapes more closely.
package sprout_test

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/table"
	"repro/internal/tpch"
)

var (
	benchOnce sync.Once
	benchData *tpch.Data
)

func benchSF() float64 {
	if s := os.Getenv("SPROUT_BENCH_SF"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.005
}

func data(b *testing.B) *tpch.Data {
	b.Helper()
	benchOnce.Do(func() {
		benchData = tpch.Generate(tpch.Config{SF: benchSF(), Seed: 1})
	})
	return benchData
}

// runStyle benchmarks one catalog query under one plan style.
func runStyle(b *testing.B, d *tpch.Data, name string, style plan.Style) {
	b.Helper()
	b.ReportAllocs()
	e := tpch.Catalog()[name]
	catalog := d.Catalog()
	sigma := tpch.FDsFor(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(catalog, e.Q.Clone(), sigma, plan.Spec{Style: style}); err != nil {
			b.Fatalf("%s %v: %v", name, style, err)
		}
	}
}

// BenchmarkFig09 reproduces Fig. 9: lazy vs eager vs MystiQ plans on the
// eight comparison queries. Expected shape: lazy fastest on the queries
// with selective joins (18, 21, B17), eager and MystiQ close behind or
// worse; the paper reports up to two orders of magnitude at SF 1.
func BenchmarkFig09(b *testing.B) {
	b.ReportAllocs()
	d := data(b)
	for _, q := range tpch.Fig9Queries() {
		q := q
		b.Run(q+"/mystiq", func(b *testing.B) {
			b.ReportAllocs()
			e := tpch.Catalog()[q]
			catalog := d.Catalog()
			sigma := tpch.FDsFor(e)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// MystiQ runtime failures (§VII) are part of the result.
				_, _ = plan.Run(catalog, e.Q.Clone(), sigma, plan.Spec{Style: plan.SafeMystiQ})
			}
		})
		b.Run(q+"/eager", func(b *testing.B) { runStyle(b, d, q, plan.Eager) })
		b.Run(q+"/lazy", func(b *testing.B) { runStyle(b, d, q, plan.Lazy) })
	}
}

// BenchmarkFig10 reproduces Fig. 10: lazy plans for the remaining 18
// queries. The interesting split (tuple time vs probability time) is
// printed by cmd/sprout-bench; here each query's full lazy run is timed.
func BenchmarkFig10(b *testing.B) {
	b.ReportAllocs()
	d := data(b)
	for _, q := range tpch.Fig10Queries() {
		q := q
		b.Run(q, func(b *testing.B) { runStyle(b, d, q, plan.Lazy) })
	}
}

// BenchmarkFig10ProbOnly times only the confidence-computation phase of the
// lazy plans — the "prob" series of Fig. 10, expected to be one to two
// orders of magnitude below the tuple-computation time.
func BenchmarkFig10ProbOnly(b *testing.B) {
	b.ReportAllocs()
	d := data(b)
	catalog := d.Catalog()
	for _, q := range tpch.Fig10Queries() {
		q := q
		b.Run(q, func(b *testing.B) {
			b.ReportAllocs()
			e := tpch.Catalog()[q]
			sigma := tpch.FDsFor(e)
			sig, err := signature.Best(e.Q, sigma)
			if err != nil {
				b.Fatal(err)
			}
			answer, err := plan.Answer(catalog, e.Q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp := *answer
				if _, err := conf.Compute(&cp, sig, conf.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11 reproduces Fig. 11: the lazy/eager rendez-vous as the
// selectivity of the constant selections varies. Expected shape: lazy wins
// at small selectivities, eager at large ones, with a crossover in between.
func BenchmarkFig11(b *testing.B) {
	b.ReportAllocs()
	d := data(b)
	for _, point := range []string{"0.1", "0.3", "0.5", "0.7", "0.9"} {
		point := point
		b.Run("sel="+point, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := benchutil.Fig11(d, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		break // the full sweep is expensive; Fig11 rows cover all points
	}
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := benchutil.Fig11(d, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12 reproduces Fig. 12: hybrid plans against the extremes on
// queries C and D. Expected shape: hybrid at least as fast as both.
func BenchmarkFig12(b *testing.B) {
	b.ReportAllocs()
	d := data(b)
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := benchutil.Fig12(d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig13 reproduces Fig. 13: the operator with and without FD
// refinement on queries 2, 7, 11 and B3, against sequential-scan and sort
// baselines. Expected shape: with FDs the operator is close to one
// sort+scan; without them it needs several times longer (more scans).
func BenchmarkFig13(b *testing.B) {
	b.ReportAllocs()
	d := data(b)
	catalog := d.Catalog()
	for _, name := range []string{"2", "7", "11", "B3"} {
		name := name
		e := tpch.Catalog()[name]
		sigma := tpch.FDsFor(e)
		refined, err := signature.WithFDs(e.Q, sigma)
		if err != nil {
			b.Fatal(err)
		}
		conservative := signature.Conservative(refined)
		answer, err := plan.Answer(catalog, e.Q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/operator-withFDs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cp := *answer
				if _, err := conf.Compute(&cp, refined, conf.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/operator-noFDs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cp := *answer
				if _, err := conf.Compute(&cp, conservative, conf.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/seqscan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Count(engine.NewMemScan(answer)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGRPvs1Scan compares the scheduled one-scan operator with
// the literal GRP-sequence semantics of Fig. 5 on the same answer relation
// (DESIGN.md ablation 1).
func BenchmarkAblationGRPvs1Scan(b *testing.B) {
	b.ReportAllocs()
	d := data(b)
	catalog := d.Catalog()
	e := tpch.Catalog()["18"]
	sigma := tpch.FDsFor(e)
	sig, err := signature.WithFDs(e.Q, sigma)
	if err != nil {
		b.Fatal(err)
	}
	answer, err := plan.Answer(catalog, e.Q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("1scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cp := *answer
			if _, err := conf.Compute(&cp, sig, conf.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grp-sequence", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := conf.GRPSequence(answer, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSortBudget exercises the external sort feeding the
// operator under shrinking memory budgets (DESIGN.md ablation 3): smaller
// budgets spill more runs to disk.
func BenchmarkAblationSortBudget(b *testing.B) {
	b.ReportAllocs()
	d := data(b)
	catalog := d.Catalog()
	e := tpch.Catalog()["B17"]
	sigma := tpch.FDsFor(e)
	sig, err := signature.Best(e.Q, sigma)
	if err != nil {
		b.Fatal(err)
	}
	answer, err := plan.Answer(catalog, e.Q)
	if err != nil {
		b.Fatal(err)
	}
	for _, budget := range []int{0, 4096, 512} {
		budget := budget
		name := "inmemory"
		if budget > 0 {
			name = "budget=" + strconv.Itoa(budget)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cp := *answer
				if _, err := conf.Compute(&cp, sig, conf.Options{SortBudget: budget, TmpDir: b.TempDir()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationJoinChoice compares hash join against sort+merge join on
// the Ord ⋈ Item workhorse join (DESIGN.md ablation 4). Merge join's sorted
// output is what the confidence operator wants, but the sort dominates.
func BenchmarkAblationJoinChoice(b *testing.B) {
	b.ReportAllocs()
	d := data(b)
	ordScan := func() engine.Operator { return engine.NewTableScan(d.Ord.Rel) }
	itemScan := func() engine.Operator { return engine.NewTableScan(d.Item.Rel) }
	ordKey := []int{d.Ord.Rel.Schema.MustColIndex("okey")}
	itemKey := []int{d.Item.Rel.Schema.MustColIndex("okey")}
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j, err := engine.NewHashJoin(ordScan(), itemScan(), ordKey, itemKey)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := engine.Count(j); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sort-merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j, err := engine.NewMergeJoin(
				engine.NewSort(ordScan(), engine.SortSpec{Cols: ordKey}),
				engine.NewSort(itemScan(), engine.SortSpec{Cols: itemKey}),
				ordKey, itemKey)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := engine.Count(j); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMonteCarloUnsafe measures the Monte Carlo plan on the unsafe
// query π{odate}(Cust ⋈ Ord ⋈ Item) with no FDs declared — a query no
// exact style can evaluate (no hierarchical signature exists, §II). The
// estimator fans the per-date lineage DNFs out to GOMAXPROCS workers;
// tighter ε grows the per-answer sample count quadratically.
func BenchmarkMonteCarloUnsafe(b *testing.B) {
	b.ReportAllocs()
	d := data(b)
	catalog := d.Catalog()
	sigma := fd.NewSet()
	for _, eps := range []float64{0.1, 0.05} {
		eps := eps
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := plan.Run(catalog, benchutil.UnsafeQuery().Clone(), sigma, plan.Spec{
					Style: plan.MonteCarlo,
					MC:    prob.MCOptions{Epsilon: eps, Delta: 0.01, Seed: 1},
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Stats.Approximate {
					b.Fatal("expected an approximate result")
				}
			}
		})
	}
	// The estimator is also a valid (if approximate) style for safe
	// queries; query 18's lazy plan is the exact yardstick.
	b.Run("safe-query-18", func(b *testing.B) {
		b.ReportAllocs()
		e := tpch.Catalog()["18"]
		for i := 0; i < b.N; i++ {
			if _, err := plan.Run(catalog, e.Q.Clone(), tpch.FDsFor(e), plan.Spec{
				Style: plan.MonteCarlo,
				MC:    prob.MCOptions{Epsilon: 0.05, Delta: 0.01, Seed: 1},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOBDDUnsafe compares the OBDD style against the Monte Carlo
// style on the unsafe query π{odate}(Cust ⋈ Ord ⋈ Item) with no FDs — the
// query where PR 1 could only estimate. The generated data satisfies
// okey → ckey even undeclared, so the per-date lineage is read-once: the
// OBDD compiles linearly and returns *exact* confidences, typically faster
// than sampling; the mc sub-benchmark reports the estimates' actual mean
// absolute error against the OBDD truth as the "mc-abs-err" metric.
func BenchmarkOBDDUnsafe(b *testing.B) {
	b.ReportAllocs()
	d := data(b)
	catalog := d.Catalog()
	sigma := fd.NewSet()
	spec := func(style plan.Style) plan.Spec {
		return plan.Spec{
			Style: style,
			MC:    prob.MCOptions{Epsilon: 0.05, Delta: 0.01, Seed: 1},
		}
	}
	b.Run("obdd", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := plan.Run(catalog, benchutil.UnsafeQuery().Clone(), sigma, spec(plan.OBDD))
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Approximate {
				b.Fatal("read-once lineage should compile exactly under the default budget")
			}
			b.ReportMetric(float64(res.Stats.OBDDNodes), "obdd-nodes")
		}
	})
	b.Run("mc", func(b *testing.B) {
		b.ReportAllocs()
		exact, err := plan.Run(catalog, benchutil.UnsafeQuery().Clone(), sigma, spec(plan.OBDD))
		if err != nil {
			b.Fatal(err)
		}
		if exact.Stats.Approximate {
			b.Fatal("OBDD baseline must be exact for mc-abs-err to measure true error")
		}
		ci := exact.Rows.Schema.MustColIndex(conf.ConfCol)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := plan.Run(catalog, benchutil.UnsafeQuery().Clone(), sigma, spec(plan.MonteCarlo))
			if err != nil {
				b.Fatal(err)
			}
			var sum float64
			for r := range res.Rows.Rows {
				sum += math.Abs(res.Rows.Rows[r][ci].F - exact.Rows.Rows[r][ci].F)
			}
			b.ReportMetric(sum/float64(res.Rows.Len()), "mc-abs-err")
		}
	})
}

// BenchmarkOperatorScaling measures the confidence operator alone on
// growing synthetic answers (linear in input size for 1scan signatures,
// Prop. III.5 / §V.C).
func BenchmarkOperatorScaling(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{1000, 10000, 100000} {
		n := n
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			sch := table.NewSchema(
				table.DataCol("d", table.KindInt),
				table.VarCol("R"), table.ProbCol("R"),
			)
			rel := table.NewRelation(sch)
			for i := 0; i < n; i++ {
				rel.MustAppend(table.Tuple{
					table.Int(int64(i % 100)),
					table.VarValue(prob.Var(i + 1)), table.Float(0.5),
				})
			}
			sig := signature.NewStar(signature.Table("R"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp := *rel
				if _, err := conf.Compute(&cp, sig, conf.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
