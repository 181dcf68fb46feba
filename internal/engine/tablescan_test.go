package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/prob"
	"repro/internal/table"
)

// storeRows builds n random rows over mixed layouts: an int column with
// NULLs, a column declared int whose cells mix int and float in the second
// chunk only (so that chunk alone degrades to the Values fallback), a string column with empty,
// repeated and NULL cells, a float column, and the V/P pair.
func storeRows(rng *rand.Rand, n int) (*table.Schema, []table.Tuple) {
	sch := table.NewSchema(
		table.DataCol("k", table.KindInt),
		table.DataCol("mix", table.KindInt),
		table.DataCol("s", table.KindString),
		table.DataCol("x", table.KindFloat),
		table.VarCol("R"), table.ProbCol("R"),
	)
	strs := []string{"", "a", "a", "bb", "", "ccc"}
	rows := make([]table.Tuple, n)
	for i := range rows {
		k := table.Int(int64(rng.Intn(50)))
		if rng.Intn(9) == 0 {
			k = table.Null()
		}
		mix := table.Int(int64(i))
		if i >= BatchSize && i < 2*BatchSize && rng.Intn(200) == 0 {
			mix = table.Float(float64(i) + 0.5)
		}
		s := table.Str(strs[rng.Intn(len(strs))])
		if rng.Intn(11) == 0 {
			s = table.Null()
		}
		rows[i] = table.Tuple{k, mix, s, table.Float(rng.Float64() * 100),
			table.VarValue(prob.Var(i + 1)), table.Float(0.5)}
	}
	return sch, rows
}

// sameVec reports the first difference between two column vectors.
func sameVec(got, want *table.ColVec) error {
	switch {
	case got.Kind != want.Kind:
		return fmt.Errorf("kind %v, want %v", got.Kind, want.Kind)
	case got.Mode != want.Mode:
		return fmt.Errorf("mode %v, want %v", got.Mode, want.Mode)
	case !slices.Equal(got.Ints, want.Ints):
		return fmt.Errorf("ints differ")
	case !slices.Equal(got.Floats, want.Floats):
		return fmt.Errorf("floats differ")
	case !slices.Equal(got.Strs, want.Strs):
		return fmt.Errorf("strs differ")
	case !slices.Equal(got.Bytes, want.Bytes) || !slices.Equal(got.Offs, want.Offs):
		return fmt.Errorf("flat strings differ")
	case !slices.Equal(got.Codes, want.Codes) || !slices.Equal(got.Dict, want.Dict):
		return fmt.Errorf("dictionary differs")
	case !slices.Equal(got.Nulls, want.Nulls):
		return fmt.Errorf("nulls %v, want %v", got.Nulls, want.Nulls)
	case (got.Values == nil) != (want.Values == nil) || !slices.Equal(got.Values, want.Values):
		return fmt.Errorf("values differ")
	}
	return nil
}

// TestTableScanLayoutIdentity: for tables of 0, 1, 1023, 1024, 1025 and
// 3000 rows, built through ProbTable.AddRow and through ColTable.Append,
// every batch the column store hands out equals, vector for vector,
// ColBatch.AppendRow over the same rows on a fresh batch — under every
// need mask, with dead columns left empty.
func TestTableScanLayoutIdentity(t *testing.T) {
	for _, n := range []int{0, 1, 1023, 1024, 1025, 3000} {
		sch, rows := storeRows(rand.New(rand.NewSource(int64(n))), n)
		pt := table.NewProbTable("R", sch.Cols[:4]...)
		byAppend := table.NewColTable(sch)
		for _, r := range rows {
			pt.MustAddRow(r[4].AsVar(), r[5].F, r[:4]...)
			byAppend.MustAppend(r)
		}
		if !pt.Rel.Schema.Equal(sch) {
			t.Fatalf("ProbTable schema %v, want %v", pt.Rel.Schema, sch)
		}
		var want []*table.ColBatch
		for lo := 0; lo < n; lo += BatchSize {
			b := table.NewColBatch(sch)
			for _, r := range rows[lo:min(lo+BatchSize, n)] {
				b.AppendRow(r)
			}
			want = append(want, b)
		}
		mixed := 0
		for _, b := range want {
			if b.Cols[1].Values != nil {
				mixed++
			}
		}
		if n == 3000 && (mixed == 0 || mixed == len(want)) {
			t.Fatalf("n=%d: %d of %d batches use the Values fallback; the fixture must mix layouts", n, mixed, len(want))
		}
		for via, ct := range map[string]*table.ColTable{"AddRow": pt.Rel, "Append": byAppend} {
			if ct.Len() != n {
				t.Fatalf("n=%d %s: Len %d", n, via, ct.Len())
			}
			for mask := -1; mask < 1<<sch.Len(); mask++ {
				var need []bool // mask -1: nil, every column live
				if mask >= 0 {
					need = make([]bool, sch.Len())
					for c := range need {
						need[c] = mask&(1<<c) != 0
					}
				}
				s := NewTableScan(ct)
				s.need = need
				if err := s.Open(); err != nil {
					t.Fatal(err)
				}
				dst := table.NewColBatch(sch)
				for k := 0; ; k++ {
					got, err := s.NextColBatch(dst)
					if err != nil {
						t.Fatal(err)
					}
					if got == 0 {
						if k != len(want) {
							t.Fatalf("n=%d %s mask=%d: %d batches, want %d", n, via, mask, k, len(want))
						}
						break
					}
					if k >= len(want) || got != want[k].N || dst.N != want[k].N || dst.Sel != nil {
						t.Fatalf("n=%d %s mask=%d batch %d: %d rows (N %d), want %d", n, via, mask, k, got, dst.N, want[k].N)
					}
					for c := range dst.Cols {
						exp := &want[k].Cols[c]
						if need != nil && !need[c] {
							exp = &table.NewColBatch(sch).Cols[c]
						}
						if err := sameVec(&dst.Cols[c], exp); err != nil {
							t.Fatalf("n=%d %s mask=%d batch %d column %s: %v", n, via, mask, k, sch.Cols[c].Name, err)
						}
					}
				}
			}
		}
	}
}

// TestTableScanNeverAliases: a consumer that appends to and overwrites the
// vectors of the batches it receives — through a ColFilter and a zero-copy
// ColProject — does not change the table: a rescan, in either tier,
// returns the original cells.
func TestTableScanNeverAliases(t *testing.T) {
	sch, rows := storeRows(rand.New(rand.NewSource(9)), 3000)
	ct := table.NewColTable(sch)
	for _, r := range rows {
		ct.MustAppend(r)
	}
	build := func() Operator {
		f := NewFilter(NewTableScan(ct), Cmp{L: ColRef{Idx: 3, Name: "x"}, Op: OpLt, R: Const{V: table.Float(60)}})
		p, err := NewColumnProject(f, []string{"s", "k", "mix", "x"})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cop, ok := Columnarize(build())
	if !ok {
		t.Fatal("filter+project over a table scan must lower to the columnar tier")
	}
	if err := cop.Open(); err != nil {
		t.Fatal(err)
	}
	b := table.NewColBatch(cop.Schema())
	for {
		n, err := cop.NextColBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for c := range b.Cols {
			v := &b.Cols[c]
			for i := range v.Ints {
				v.Ints[i] = -7
			}
			for i := range v.Floats {
				v.Floats[i] = -7
			}
			for i := range v.Strs {
				v.Strs[i] = "clobbered"
			}
			for i := range v.Nulls {
				v.Nulls[i] = ^uint64(0)
			}
			for i := range v.Values {
				v.Values[i] = table.Str("clobbered")
			}
			v.Ints = append(v.Ints, -8)
			v.Floats = append(v.Floats, -8)
			v.Strs = append(v.Strs, "appended")
			v.Nulls = append(v.Nulls, ^uint64(0))
		}
	}
	if err := cop.Close(); err != nil {
		t.Fatal(err)
	}

	ref := &table.Relation{Schema: sch, Rows: rows}
	for i, r := range rows {
		got := make(table.Tuple, sch.Len())
		ct.WriteRow(i, got)
		if table.CompareOn(got, r, []int{0, 1, 2, 3, 4, 5}) != 0 {
			t.Fatalf("row %d = %v after the clobbering scan, want %v", i, got, r)
		}
	}
	want, err := CollectCtx(nil, func() Operator {
		f := NewFilter(NewMemScan(ref), Cmp{L: ColRef{Idx: 3, Name: "x"}, Op: OpLt, R: Const{V: table.Float(60)}})
		p, _ := NewColumnProject(f, []string{"s", "k", "mix", "x"})
		return p
	}())
	if err != nil {
		t.Fatal(err)
	}
	got, columnar, err := CollectCtxVec(nil, build())
	if err != nil || !columnar {
		t.Fatalf("columnar rescan: columnar=%v err=%v", columnar, err)
	}
	mustSameRelations(t, "columnar rescan", got, want)
	got, err = CollectCtx(nil, build())
	if err != nil {
		t.Fatal(err)
	}
	mustSameRelations(t, "row rescan", got, want)
}
