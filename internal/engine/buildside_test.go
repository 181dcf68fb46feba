package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/prob"
	"repro/internal/storage"
	"repro/internal/table"
)

// bsRel builds a build-side test relation: a skewed int key k (products of
// two small draws, so 0 dominates and groups have many members) with a NULL
// every 23rd row, a string key s over strCard distinct values, a float x
// for filters, and the V/P lineage columns.
func bsRel(rows, strCard int, seed int64) *table.Relation {
	rng := rand.New(rand.NewSource(seed))
	sch := table.NewSchema(
		table.DataCol("k", table.KindInt),
		table.DataCol("s", table.KindString),
		table.DataCol("x", table.KindFloat),
		table.VarCol("R"), table.ProbCol("R"),
	)
	rel := table.NewRelation(sch)
	for i := 0; i < rows; i++ {
		k := table.Int(int64(rng.Intn(8) * rng.Intn(8)))
		if i%23 == 0 {
			k = table.Null()
		}
		rel.MustAppend(table.Tuple{
			k,
			table.Str(fmt.Sprintf("s-%03d", rng.Intn(strCard))),
			table.Float(rng.Float64() * 100),
			table.VarValue(prob.Var(seed*100000 + int64(i) + 1)), table.Float(0.5),
		})
	}
	return rel
}

// refJoin is the nested-loop statement of the build-side contract: build on
// the left iff |L| < |R|, emit left ++ right in probe-input order with each
// probe row's matches in build-input order.
func refJoin(l, r *table.Relation, lk, rk []int) (*table.Relation, bool) {
	out := table.NewRelation(l.Schema.Concat(r.Schema))
	buildLeft := l.Len() < r.Len()
	emit := func(a, b table.Tuple) {
		out.Rows = append(out.Rows, append(append(table.Tuple{}, a...), b...))
	}
	if buildLeft {
		for _, rt := range r.Rows {
			for _, lt := range l.Rows {
				if table.EqualOn2(lt, lk, rt, rk) {
					emit(lt, rt)
				}
			}
		}
	} else {
		for _, lt := range l.Rows {
			for _, rt := range r.Rows {
				if table.EqualOn2(lt, lk, rt, rk) {
					emit(lt, rt)
				}
			}
		}
	}
	return out, buildLeft
}

// TestHashJoinBuildSideMatrix: the row HashJoin and the columnar
// ColHashJoin pick the same build side (|L| < |R| builds left, ties keep
// the right) and emit the same rows in the same order — the nested-loop
// reference's — across input sizes including ties and empty sides, skewed
// multi-match and NULL keys, in-memory (shared string headers) and heap
// (dictionary and flat string layouts) inputs, filtered inputs whose column
// batches carry selection vectors, and collector batch sizes 1, 7 and 1024.
func TestHashJoinBuildSideMatrix(t *testing.T) {
	sizes := []struct{ l, r int }{{150, 900}, {900, 900}, {900, 150}, {0, 500}, {500, 0}}
	layouts := []struct {
		name    string
		strCard int
		heap    bool
	}{
		{"mem", 12, false},
		{"heap-dict", 12, true},
		{"heap-flat", table.DictMaxCard + 100, true},
	}
	keys := []struct {
		name string
		cols []int
	}{{"int", []int{0}}, {"str", []int{1}}}
	filters := []string{"none", "left", "right"}
	pool := storage.NewBufferPool(16)
	for _, sz := range sizes {
		for _, lay := range layouts {
			lrel := bsRel(sz.l, lay.strCard, 1)
			rrel := bsRel(sz.r, lay.strCard, 2)
			mk := func(rel *table.Relation) func() Operator {
				return func() Operator { return NewMemScan(rel) }
			}
			mkL, mkR := mk(lrel), mk(rrel)
			if lay.heap {
				dir := t.TempDir()
				lh := writeHeapAt(t, filepath.Join(dir, "l.heap"), lrel)
				rh := writeHeapAt(t, filepath.Join(dir, "r.heap"), rrel)
				mkL = func() Operator { return NewHeapScan(lh, pool, lrel.Schema) }
				mkR = func() Operator { return NewHeapScan(rh, pool, rrel.Schema) }
			}
			for _, key := range keys {
				for _, filt := range filters {
					name := fmt.Sprintf("L%d-R%d/%s/%s-key/filter-%s", sz.l, sz.r, lay.name, key.name, filt)
					t.Run(name, func(t *testing.T) {
						input := func(mk func() Operator, side string) Operator {
							if filt == side {
								return NewFilter(mk(), Cmp{L: ColRef{Idx: 2, Name: "x"}, Op: OpLt, R: Const{V: table.Float(40)}})
							}
							return mk()
						}
						lin, err := CollectCtx(nil, input(mkL, "left"))
						if err != nil {
							t.Fatal(err)
						}
						rin, err := CollectCtx(nil, input(mkR, "right"))
						if err != nil {
							t.Fatal(err)
						}
						want, wantLeft := refJoin(lin, rin, key.cols, key.cols)
						build := func(st *JoinStats) Operator {
							j, err := NewHashJoin(input(mkL, "left"), input(mkR, "right"), key.cols, key.cols)
							if err != nil {
								t.Fatal(err)
							}
							j.Stats = st
							return j
						}
						checkSide := func(label string, st *JoinStats, rows int) {
							t.Helper()
							if st.BuildLeft != wantLeft {
								t.Fatalf("%s: built left=%v, want %v (|L|=%d, |R|=%d)", label, st.BuildLeft, wantLeft, lin.Len(), rin.Len())
							}
							if st.BuildRows != int64(rows) {
								t.Fatalf("%s: build rows %d, want %d", label, st.BuildRows, rows)
							}
						}
						buildRows := rin.Len()
						if wantLeft {
							buildRows = lin.Len()
						}
						for _, bs := range []int{1, 7, 1024} {
							var st JoinStats
							got, err := CollectCtxBatch(nil, build(&st), bs)
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("row, batch %d", bs)
							checkSide(label, &st, buildRows)
							mustSameRelations(t, label, got, want)
						}
						var st JoinStats
						got, columnar, err := CollectCtxVec(nil, build(&st))
						if err != nil {
							t.Fatal(err)
						}
						if !columnar {
							t.Fatal("join tree did not run columnar")
						}
						checkSide("columnar", &st, buildRows)
						mustSameRelations(t, "columnar", got, want)
					})
				}
			}
		}
	}
	if n := pool.Pinned(); n != 0 {
		t.Fatalf("%d buffer frames left pinned", n)
	}
}

// writeHeapAt persists rel as a heap file at path and reopens it
// read-only.
func writeHeapAt(t *testing.T, path string, rel *table.Relation) *storage.HeapFile {
	t.Helper()
	h, err := storage.CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rel.Rows {
		if err := h.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := storage.OpenHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ro.Close() })
	return ro
}

// TestRaceInputsBuffering: the race decides from row counts alone and
// stops pulling once the rule is decided, so no side buffers more than
// min(|L|, |R|) rows plus one batch, whatever the batch sizes.
func TestRaceInputsBuffering(t *testing.T) {
	for _, tc := range []struct{ l, r, lb, rb int }{
		{10, 100000, 1024, 1024},
		{100000, 10, 1024, 1024},
		{5000, 5000, 1024, 7},
		{4999, 5000, 3, 1024},
		{0, 0, 1024, 1024},
		{0, 3, 1, 1},
	} {
		var pulled [2]int
		src := func(side, total, batch int) func() (int, error) {
			return func() (int, error) {
				n := min(batch, total-pulled[side])
				pulled[side] += n
				return n, nil
			}
		}
		left, err := raceInputs(nil, [2]func() (int, error){src(0, tc.l, tc.lb), src(1, tc.r, tc.rb)})
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.l < tc.r; left != want {
			t.Errorf("%+v: build left=%v, want %v", tc, left, want)
		}
		limit := min(tc.l, tc.r) + max(tc.lb, tc.rb)
		if pulled[0] > limit || pulled[1] > limit {
			t.Errorf("%+v: buffered %v rows, want each ≤ %d", tc, pulled, limit)
		}
	}
}

// faultyOp wraps a row operator: Open fails with openErr, or the
// failAt-th NextBatch call fails with batchErr — or, with cancel set, runs
// cancel after the failAt-th batch instead. It counts Opens and Closes.
type faultyOp struct {
	Operator
	openErr, batchErr error
	failAt            int
	cancel            func()
	calls             int
	opens, closes     int
}

func (f *faultyOp) Open() error {
	f.opens++
	if f.openErr != nil {
		return f.openErr
	}
	f.calls = 0
	return f.Operator.Open()
}

func (f *faultyOp) NextBatch(dst []table.Tuple) (int, error) {
	f.calls++
	if f.calls == f.failAt && f.batchErr != nil {
		return 0, f.batchErr
	}
	n, err := f.Operator.NextBatch(dst)
	if f.calls == f.failAt && f.cancel != nil {
		f.cancel()
	}
	return n, err
}

func (f *faultyOp) Close() error {
	f.closes++
	return f.Operator.Close()
}

// faultyColOp is faultyOp for the columnar tier.
type faultyColOp struct {
	ColOperator
	openErr, batchErr error
	failAt            int
	cancel            func()
	calls             int
	opens, closes     int
}

func (f *faultyColOp) Open() error {
	f.opens++
	if f.openErr != nil {
		return f.openErr
	}
	f.calls = 0
	return f.ColOperator.Open()
}

func (f *faultyColOp) NextColBatch(dst *table.ColBatch) (int, error) {
	f.calls++
	if f.calls == f.failAt && f.batchErr != nil {
		return 0, f.batchErr
	}
	n, err := f.ColOperator.NextColBatch(dst)
	if f.calls == f.failAt && f.cancel != nil {
		f.cancel()
	}
	return n, err
}

func (f *faultyColOp) Close() error {
	f.closes++
	return f.ColOperator.Close()
}

// TestHashJoinOpenFailures: a join whose Open fails — a child's Open
// erroring, a child's batch erroring mid-race, or the context cancelled
// mid-race — returns the error with every opened child closed and no
// buffer frame left pinned, in both tiers; a governed join that fails
// inside grace mode leaves no spill file behind.
func TestHashJoinOpenFailures(t *testing.T) {
	lrel := bsRel(6000, 12, 3)
	rrel := bsRel(5000, 12, 4)
	dir := t.TempDir()
	lh := writeHeapAt(t, filepath.Join(dir, "l.heap"), lrel)
	rh := writeHeapAt(t, filepath.Join(dir, "r.heap"), rrel)
	pool := storage.NewBufferPool(16)
	boom := errors.New("boom")
	cases := []struct {
		name       string
		side       int // 0 = left child faulty, 1 = right
		open       bool
		cancel     bool
		wantOpened [2]int
	}{
		{"left-open", 0, true, false, [2]int{1, 0}},
		{"right-open", 1, true, false, [2]int{1, 1}},
		{"left-batch", 0, false, false, [2]int{1, 1}},
		{"right-batch", 1, false, false, [2]int{1, 1}},
		{"cancel-left", 0, false, true, [2]int{1, 1}},
		{"cancel-right", 1, false, true, [2]int{1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			wantErr := boom
			if tc.cancel {
				wantErr = context.Canceled
			}
			setup := func(openErr, batchErr *error, failAt *int, cf *func()) {
				switch {
				case tc.open:
					*openErr = boom
				case tc.cancel:
					*failAt, *cf = 2, cancel
				default:
					*failAt, *batchErr = 2, boom
				}
			}

			// Row tier.
			var rows [2]*faultyOp
			for side, h := range []*storage.HeapFile{lh, rh} {
				rows[side] = &faultyOp{Operator: NewHeapScan(h, pool, lrel.Schema)}
			}
			f := rows[tc.side]
			setup(&f.openErr, &f.batchErr, &f.failAt, &f.cancel)
			j, err := NewHashJoin(rows[0], rows[1], []int{0}, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			j.Ctx = ctx
			if err := j.Open(); !errors.Is(err, wantErr) {
				t.Fatalf("row join Open = %v, want %v", err, wantErr)
			}
			for side, op := range rows {
				if op.opens != tc.wantOpened[side] || (op.opens > 0 && op.openErr == nil && op.closes == 0) {
					t.Errorf("row side %d: %d opens, %d closes; want %d opens, each successful open closed", side, op.opens, op.closes, tc.wantOpened[side])
				}
			}
			if n := pool.Pinned(); n != 0 {
				t.Fatalf("row join: %d buffer frames left pinned", n)
			}

			// Columnar tier.
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			var cols [2]*faultyColOp
			for side, h := range []*storage.HeapFile{lh, rh} {
				cols[side] = &faultyColOp{ColOperator: NewColHeapScan(h, pool, lrel.Schema)}
			}
			c := cols[tc.side]
			setup(&c.openErr, &c.batchErr, &c.failAt, &c.cancel)
			cj := &ColHashJoin{Left: cols[0], Right: cols[1], LeftKeys: []int{0}, RightKeys: []int{0},
				Ctx: ctx, out: lrel.Schema.Concat(rrel.Schema)}
			if err := cj.Open(); !errors.Is(err, wantErr) {
				t.Fatalf("columnar join Open = %v, want %v", err, wantErr)
			}
			for side, op := range cols {
				if op.opens != tc.wantOpened[side] || (op.opens > 0 && op.openErr == nil && op.closes == 0) {
					t.Errorf("columnar side %d: %d opens, %d closes; want %d opens, each successful open closed", side, op.opens, op.closes, tc.wantOpened[side])
				}
			}
			if n := pool.Pinned(); n != 0 {
				t.Fatalf("columnar join: %d buffer frames left pinned", n)
			}
		})
	}

	t.Run("governed-grace-build-fails", func(t *testing.T) {
		// The first build reservation is denied, so the join enters grace
		// mode and sorts the right input with spills; that input then fails
		// mid-stream.
		spill := t.TempDir()
		right := &faultyOp{Operator: NewHeapScan(rh, pool, rrel.Schema), failAt: 3, batchErr: boom}
		left := &faultyOp{Operator: NewHeapScan(lh, pool, lrel.Schema)}
		j, err := NewHashJoin(left, right, []int{0}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		j.Mem = fault.NewGovernor(32<<10, nil)
		j.SortBudget, j.TmpDir = 64, spill
		if err := j.Open(); !errors.Is(err, boom) {
			t.Fatalf("governed join Open = %v, want %v", err, boom)
		}
		if left.closes == 0 || right.closes == 0 {
			t.Errorf("children not closed: left %d, right %d closes", left.closes, right.closes)
		}
		if n := pool.Pinned(); n != 0 {
			t.Fatalf("%d buffer frames left pinned", n)
		}
		ents, err := os.ReadDir(spill)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("%d spill files left behind", len(ents))
		}
	})
}
