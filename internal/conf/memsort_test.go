package conf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/prob"
	"repro/internal/signature"
	"repro/internal/storage"
	"repro/internal/table"
)

// sortKeyRel builds an R/S answer relation whose sort keys exercise every
// path of the in-memory sort: an int column with NULL cells, a column
// mixing int and float cells, a string column, and rows tied on every sort
// column — exact duplicates, and twins whose m cells are numerically equal
// but of different kinds (2 and 2.0), so which twin heads a group depends
// on the sort keeping input order among ties. V→P stays functional, as in
// any answer relation.
func sortKeyRel(rng *rand.Rand, groups int) *table.Relation {
	sch := table.NewSchema(
		table.DataCol("a", table.KindInt),
		table.DataCol("m", table.KindFloat),
		table.DataCol("s", table.KindString),
		table.VarCol("R"), table.ProbCol("R"),
		table.VarCol("S"), table.ProbCol("S"),
	)
	rel := table.NewRelation(sch)
	nextVar := int64(1)
	for g := 0; g < groups; g++ {
		a := table.Int(int64(rng.Intn(5)))
		if rng.Intn(10) == 0 {
			a = table.Null()
		}
		rv := nextVar
		nextVar++
		rp := 0.1 + 0.8*rng.Float64()
		for d, dups := 0, 1+rng.Intn(4); d < dups; d++ {
			var m table.Value
			switch k := int64(rng.Intn(4)); rng.Intn(3) {
			case 0:
				m = table.Int(k)
			case 1:
				m = table.Float(float64(k))
			default:
				m = table.Float(float64(k) + 0.5)
			}
			sv := nextVar
			nextVar++
			sp := 0.1 + 0.8*rng.Float64()
			row := table.Tuple{a, m, table.Str(fmt.Sprintf("s%d", rng.Intn(3))),
				table.VarValue(prob.Var(rv)), table.Float(rp),
				table.VarValue(prob.Var(sv)), table.Float(sp)}
			rel.MustAppend(row)
			switch rng.Intn(4) {
			case 0:
				rel.MustAppend(row.Clone())
			case 1:
				// A twin equal on every sort column whose m cell has the
				// other numeric kind: only a stable sort keeps which twin
				// heads its group.
				twin := row.Clone()
				if m.Kind == table.KindInt {
					twin[1] = table.Float(float64(m.I))
				} else {
					twin[1] = table.Int(int64(m.F))
				}
				if table.Compare(twin[1], m) == 0 {
					rel.MustAppend(twin)
				}
			}
		}
	}
	rng.Shuffle(rel.Len(), func(i, j int) { rel.Rows[i], rel.Rows[j] = rel.Rows[j], rel.Rows[i] })
	return rel
}

// mustBitIdentical fails unless got and want hold the same rows in the
// same order with bit-identical cells (floats compared by their bits).
func mustBitIdentical(t *testing.T, label string, got, want *table.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Rows {
		g, w := got.Rows[i], want.Rows[i]
		if len(g) != len(w) {
			t.Fatalf("%s: row %d arity %d, want %d", label, i, len(g), len(w))
		}
		for c := range w {
			if g[c].Kind != w[c].Kind || g[c].I != w[c].I || g[c].S != w[c].S ||
				math.Float64bits(g[c].F) != math.Float64bits(w[c].F) {
				t.Fatalf("%s: row %d col %d = %v, want %v", label, i, c, g[c], w[c])
			}
		}
	}
}

// TestInMemorySortMatchesExternal: the ungoverned in-memory sort+scan and
// the external sort (forced to spill by a 32-tuple budget) give
// bit-identical ComputeStats and Aggregate outputs over random relations
// with ties, NULL key cells, a mixed int/float key column and string keys.
func TestInMemorySortMatchesExternal(t *testing.T) {
	sig := twoSourceSig()
	for seed := int64(1); seed <= 8; seed++ {
		rel := sortKeyRel(rand.New(rand.NewSource(seed)), 400)
		if k := extractSortKey(rel.Rows, 1); k.kind != table.KindNull {
			t.Fatalf("seed %d: mixed column took the typed path (%v)", seed, k.kind)
		}
		ext := Options{SortBudget: 32, TmpDir: t.TempDir()}

		mem, memStats, err := ComputeStats(rel, sig, Options{})
		if err != nil {
			t.Fatal(err)
		}
		spilled, extStats, err := ComputeStats(rel, sig, ext)
		if err != nil {
			t.Fatal(err)
		}
		if memStats.SpilledRuns != 0 || extStats.SpilledRuns == 0 {
			t.Fatalf("seed %d: spilled runs %d in memory, %d external; want 0 and > 0", seed, memStats.SpilledRuns, extStats.SpilledRuns)
		}
		mustBitIdentical(t, fmt.Sprintf("seed %d ComputeStats", seed), mem, spilled)

		for _, s := range []signature.Sig{signature.NewStar(signature.Table("S")), sig} {
			memAgg, _, _, err := Aggregate(rel, s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			extAgg, _, _, err := Aggregate(rel, s, ext)
			if err != nil {
				t.Fatal(err)
			}
			mustBitIdentical(t, fmt.Sprintf("seed %d Aggregate[%s]", seed, s), memAgg, extAgg)
		}
	}
}

// TestUngovernedSortNeverSpills: an ungoverned sort+scan over more rows
// than the external sorter's default budget stays in memory, while a tiny
// governor makes the same scan spill — with bit-identical results.
func TestUngovernedSortNeverSpills(t *testing.T) {
	rel := randomTwoSourceRel(rand.New(rand.NewSource(5)), storage.DefaultSortBudget/4+100, 4)
	mem, memStats, err := ComputeStats(rel, twoSourceSig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if memStats.SpilledRuns != 0 {
		t.Fatalf("ungoverned sort spilled %d runs", memStats.SpilledRuns)
	}
	gov, govStats, err := ComputeStats(rel, twoSourceSig(), Options{Mem: fault.NewGovernor(1<<20, nil), TmpDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if govStats.SpilledRuns == 0 {
		t.Fatal("sort under a tiny governor did not spill")
	}
	mustBitIdentical(t, "governed", mem, gov)
}
