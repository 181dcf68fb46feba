package conf

import (
	"context"
	"slices"

	"repro/internal/table"
)

// sortKey is one sort column of the in-memory sort+scan path, extracted
// once into a typed slice indexed by row position. kind is KindInt (int and
// bool cells alike, both ordered by Value.I), KindFloat or KindString when
// every cell of the column has that one kind; KindNull marks a column that
// holds a NULL or mixes kinds, which compares cell by cell through
// table.Compare instead.
type sortKey struct {
	col    int
	kind   table.Kind
	ints   []int64
	floats []float64
	strs   []string
}

// extractSortKey builds the typed sort key of column col over rows.
func extractSortKey(rows []table.Tuple, col int) sortKey {
	k := sortKey{col: col, kind: table.KindNull}
	if len(rows) == 0 {
		return k
	}
	kind := rows[0][col].Kind
	for _, r := range rows {
		if r[col].Kind != kind {
			return k
		}
	}
	switch kind {
	case table.KindInt, table.KindBool:
		k.ints = make([]int64, len(rows))
		for i, r := range rows {
			k.ints[i] = r[col].I
		}
		k.kind = table.KindInt
	case table.KindFloat:
		k.floats = make([]float64, len(rows))
		for i, r := range rows {
			k.floats[i] = r[col].F
		}
		k.kind = table.KindFloat
	case table.KindString:
		k.strs = make([]string, len(rows))
		for i, r := range rows {
			k.strs[i] = r[col].S
		}
		k.kind = table.KindString
	}
	return k
}

// order3 is the three-way result of the `<`/`>` pair table.Compare uses
// within one kind (so a NaN float compares equal to everything, as there).
func order3(less, greater bool) int {
	switch {
	case less:
		return -1
	case greater:
		return 1
	default:
		return 0
	}
}

// memSortedScan is sortedScan for an ungoverned sort without an explicit
// budget: it stably sorts a permutation of rel's row positions over typed
// key columns and emits rel.Rows in that order. The comparison agrees with
// table.CompareOn on every pair, so the order equals the external sorter's
// stable CompareOn order exactly; the emitted tuples are rel's own rows,
// stable for the caller to retain. The context is checked before sorting
// and once per scanBatchSize emitted tuples.
func memSortedScan(ctx context.Context, rel *table.Relation, keyCols []int, emit func(table.Tuple) error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	rows := rel.Rows
	keys := make([]sortKey, len(keyCols))
	for i, c := range keyCols {
		keys[i] = extractSortKey(rows, c)
	}
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		for i := range keys {
			k := &keys[i]
			var c int
			switch k.kind {
			case table.KindInt:
				c = order3(k.ints[a] < k.ints[b], k.ints[a] > k.ints[b])
			case table.KindFloat:
				c = order3(k.floats[a] < k.floats[b], k.floats[a] > k.floats[b])
			case table.KindString:
				c = order3(k.strs[a] < k.strs[b], k.strs[a] > k.strs[b])
			default:
				c = table.Compare(rows[a][k.col], rows[b][k.col])
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	for i, p := range perm {
		if i%scanBatchSize == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		if err := emit(rows[p]); err != nil {
			return err
		}
	}
	return nil
}
