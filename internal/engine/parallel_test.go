package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pool"
	"repro/internal/table"
)

// randRel builds a relation with one int key column (small domain, so joins
// produce matches) and one int payload column.
func randRel(rng *rand.Rand, rows, keyDomain int) *table.Relation {
	rel := table.NewRelation(table.NewSchema(
		table.DataCol("k", table.KindInt),
		table.DataCol("v", table.KindInt),
	))
	for i := 0; i < rows; i++ {
		rel.MustAppend(table.Tuple{
			table.Int(int64(rng.Intn(keyDomain))),
			table.Int(int64(i)),
		})
	}
	return rel
}

func collectAll(t *testing.T, op Operator) *table.Relation {
	t.Helper()
	rel, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// rowMultiset renders a relation as a sorted bag of row strings.
func rowMultiset(rel *table.Relation) map[string]int {
	m := make(map[string]int)
	for _, r := range rel.Rows {
		m[r.String()]++
	}
	return m
}

// TestPartitionedHashJoinMatchesHashJoin: the partitioned join produces the
// same multiset of rows as the classic hash join, and its row order is
// identical for every worker count and for its columnar twin
// (ColPartitionedHashJoin, lowered by CollectCtxVec).
func TestPartitionedHashJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	left := randRel(rng, 5000, 200)
	right := randRel(rng, 3000, 200)

	serial, err := NewHashJoin(NewMemScan(left), NewMemScan(right), []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	want := collectAll(t, serial)
	wantBag := rowMultiset(want)

	var first *table.Relation
	for _, tc := range []struct {
		workers  int
		columnar bool
	}{{1, false}, {2, false}, {7, false}, {7, true}} {
		pj, err := NewPartitionedHashJoin(NewMemScan(left), NewMemScan(right), []int{0}, []int{0}, pool.New(tc.workers), context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var got *table.Relation
		if tc.columnar {
			var columnar bool
			got, columnar, err = CollectCtxVec(context.Background(), pj)
			if err != nil || !columnar {
				t.Fatalf("columnar twin: lowered=%v err=%v", columnar, err)
			}
		} else {
			got = collectAll(t, pj)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%+v: %d rows, want %d", tc, got.Len(), want.Len())
		}
		bag := rowMultiset(got)
		for k, n := range wantBag {
			if bag[k] != n {
				t.Fatalf("%+v: row %s count %d, want %d", tc, k, bag[k], n)
			}
		}
		if first == nil {
			first = got
			continue
		}
		for i := range got.Rows {
			if got.Rows[i].String() != first.Rows[i].String() {
				t.Fatalf("%+v: row %d order differs from workers=1", tc, i)
			}
		}
	}
}

// TestCollectChunksPreservesOrder: chunked evaluation of a filter+project
// pipeline over a column store equals the serial collection over the same
// rows held as a relation, row for row, for every worker count.
func TestCollectChunksPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := randRel(rng, ParallelMinRows*3, 50)
	wrap := func(in Operator) (Operator, error) {
		f := NewFilter(in, Cmp{L: ColRef{Idx: 0, Name: "k"}, Op: OpLt, R: Const{V: table.Int(25)}})
		return NewColumnProject(f, []string{"v", "k"})
	}

	op, err := wrap(NewMemScan(rel))
	if err != nil {
		t.Fatal(err)
	}
	want := collectAll(t, op)

	ct := table.NewColTable(rel.Schema)
	for _, row := range rel.Rows {
		ct.MustAppend(row)
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := CollectChunks(context.Background(), pool.New(workers), ct, wrap)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: %d rows, want %d", workers, got.Len(), want.Len())
		}
		for i := range got.Rows {
			if got.Rows[i].String() != want.Rows[i].String() {
				t.Fatalf("workers=%d: row %d = %s, want %s", workers, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// TestCollectCtxCancellation: a cancelled context aborts collection.
func TestCollectCtxCancellation(t *testing.T) {
	rel := randRel(rand.New(rand.NewSource(1)), 10, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CollectCtx(ctx, NewMemScan(rel)); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The columnar partitioned join drains its children under its own
	// context, below the parallel cutoff too (no pool dispatch to notice).
	pj, err := NewPartitionedHashJoin(NewMemScan(rel), NewMemScan(rel), []int{0}, []int{0}, pool.New(1), ctx)
	if err != nil {
		t.Fatal(err)
	}
	cj, ok := Columnarize(pj)
	if !ok {
		t.Fatal("partitioned join did not lower to the columnar tier")
	}
	if err := cj.Open(); err != context.Canceled {
		t.Fatalf("columnar partitioned join Open: got %v, want context.Canceled", err)
	}
}

// TestPoolDoErrorIsLowestIndex: pool.Do reports the error of the lowest
// erroring index regardless of worker count.
func TestPoolDoErrorIsLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := pool.New(workers)
		err := p.Do(context.Background(), 100, func(i int) error {
			if i >= 37 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 37 failed" {
			t.Fatalf("workers=%d: got %v, want task 37 failed", workers, err)
		}
	}
}
