package table

import (
	"fmt"
	"iter"
	"slices"
)

// ChunkRows is the row count of one ColTable chunk. It equals the engine's
// batch size, so a base-table scan hands out exactly one chunk per column
// batch.
const ChunkRows = 1024

// ColTable is the column store of a base table: its rows live in
// append-only chunks of ChunkRows rows, each chunk one ColVec per column in
// the layout ColBatch.AppendRow builds on a fresh batch (typed vectors,
// strings as shared headers, the NULL bitmap, and the per-chunk Values
// fallback when a column mixes kinds). Chunk k holds rows
// [k·ChunkRows, (k+1)·ChunkRows). Only the last chunk (the tail) takes
// appends; a full chunk is sealed with every vector trimmed to its length,
// so no append slack stays live.
//
// A ColTable holds no Tuple and almost no pointers (string headers only),
// so the GC scans little of it. Scans copy chunk vectors out (ReadChunk)
// and never alias them. Appends must not run concurrently with reads;
// concurrent reads (parallel chunk scans) are safe.
type ColTable struct {
	Schema *Schema
	chunks []tableChunk
	n      int
}

type tableChunk struct {
	cols []ColVec
	n    int
}

// NewColTable returns an empty column store over a schema.
func NewColTable(s *Schema) *ColTable { return &ColTable{Schema: s} }

// Len returns the number of rows.
func (t *ColTable) Len() int { return t.n }

// Chunks returns the number of chunks (the tail included).
func (t *ColTable) Chunks() int { return len(t.chunks) }

// Append adds a row after arity-checking it against the schema. The cells
// are copied into the tail chunk; the tuple is not retained.
func (t *ColTable) Append(row Tuple) error {
	if len(row) != t.Schema.Len() {
		return fmt.Errorf("table: arity mismatch: tuple has %d values, schema %d columns", len(row), t.Schema.Len())
	}
	cols, n := t.tail()
	for c, v := range row {
		cols[c].AppendValue(n, v)
	}
	t.commit()
	return nil
}

// MustAppend is Append for fixtures; panics on arity mismatch.
func (t *ColTable) MustAppend(row Tuple) {
	if err := t.Append(row); err != nil {
		panic(err)
	}
}

// tail returns the column vectors of the chunk taking the next row and
// that row's index within it, opening a new chunk when the last one is
// sealed. A table's first chunk grows by append (small tables stay small);
// later chunks are sized to ChunkRows up front.
func (t *ColTable) tail() ([]ColVec, int) {
	if len(t.chunks) == 0 || t.chunks[len(t.chunks)-1].n == ChunkRows {
		cols := make([]ColVec, t.Schema.Len())
		for c := range cols {
			cols[c].reset(t.Schema.Cols[c].Kind)
			if len(t.chunks) > 0 {
				cols[c].presize()
			}
		}
		t.chunks = append(t.chunks, tableChunk{cols: cols})
	}
	ch := &t.chunks[len(t.chunks)-1]
	return ch.cols, ch.n
}

// commit counts the row just written into the tail and seals a full chunk.
func (t *ColTable) commit() {
	ch := &t.chunks[len(t.chunks)-1]
	ch.n++
	t.n++
	if ch.n == ChunkRows {
		for c := range ch.cols {
			ch.cols[c].trim()
		}
	}
}

// presize gives the declared kind's typed vector room for a full chunk.
func (v *ColVec) presize() {
	switch v.Kind {
	case KindInt, KindBool:
		v.Ints = make([]int64, 0, ChunkRows)
	case KindFloat:
		v.Floats = make([]float64, 0, ChunkRows)
	case KindString:
		v.Strs = make([]string, 0, ChunkRows)
	}
}

// trim reallocates every vector with spare capacity at exactly its length.
func (v *ColVec) trim() {
	v.Ints = trimSlice(v.Ints)
	v.Floats = trimSlice(v.Floats)
	v.Strs = trimSlice(v.Strs)
	v.Nulls = trimSlice(v.Nulls)
	v.Values = trimSlice(v.Values)
}

func trimSlice[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	if len(s) == 0 {
		return nil
	}
	// make, not slices.Clone: append rounds capacity up to a size class.
	out := make(S, len(s))
	copy(out, s)
	return out
}

// ReadChunk copies chunk k into dst, reset to the table's schema, and
// returns its row count. need marks the columns to copy (nil = all); the
// vectors of the others stay empty. Each live column costs one copy per
// vector the chunk uses; dst never aliases the table, so its consumers may
// append to or overwrite the vectors.
func (t *ColTable) ReadChunk(k int, need []bool, dst *ColBatch) int {
	ch := &t.chunks[k]
	dst.Reset(t.Schema)
	for c := range ch.cols {
		if need == nil || need[c] {
			dst.Cols[c].copyFrom(&ch.cols[c])
		}
	}
	dst.N = ch.n
	return ch.n
}

// copyFrom overwrites v (just reset) with a copy of a chunk vector, which
// only ever uses the typed, header-string, NULL and Values storage.
func (v *ColVec) copyFrom(src *ColVec) {
	v.Mode = src.Mode
	v.Ints = append(v.Ints, src.Ints...)
	v.Floats = append(v.Floats, src.Floats...)
	v.Strs = append(v.Strs, src.Strs...)
	v.Nulls = append(v.Nulls, src.Nulls...)
	if src.Values != nil {
		v.Values = slices.Clone(src.Values)
	}
}

// WriteRow materializes row i into dst (len Schema.Len()).
func (t *ColTable) WriteRow(i int, dst Tuple) {
	ch := &t.chunks[i/ChunkRows]
	r := i % ChunkRows
	for c := range ch.cols {
		dst[c] = ch.cols[c].Value(r)
	}
}

// All yields every row in order, materialized into one reused tuple: the
// yielded tuple is valid only until the next iteration, so a caller that
// keeps a row must Clone it.
func (t *ColTable) All() iter.Seq[Tuple] {
	return func(yield func(Tuple) bool) {
		row := make(Tuple, t.Schema.Len())
		for i := 0; i < t.n; i++ {
			t.WriteRow(i, row)
			if !yield(row) {
				return
			}
		}
	}
}
