package engine

import "repro/internal/table"

// TableScan reads a base table's column store (table.ColTable) in either
// tier. As a ColOperator it hands out one chunk per batch, copying the
// chunk's vectors into the consumer's batch (ColTable.ReadChunk) — the
// batches, boundaries included, are the ones ColMemScan would transpose out
// of the same rows. As a row Operator it materializes the chunk cells into
// reused per-slot buffers. A scan covers the table's rows [lo, hi), which
// NewTableScanRange aligns to chunk boundaries for the parallel collectors.
type TableScan struct {
	T      *table.ColTable
	lo, hi int // row range; hi < 0 means to the end of the table
	pos    int
	end    int
	// need marks the columns some consumer reads (nil = all), exactly as
	// on ColHeapScan: dead columns are not copied and their vectors stay
	// empty. Set by pruneCols; the row form always materializes every
	// column.
	need  []bool
	slots slotBufs
}

// NewTableScan builds a scan over every row of a column store.
func NewTableScan(t *table.ColTable) *TableScan { return &TableScan{T: t, hi: -1} }

// NewTableScanRange builds a scan over chunks [lo, hi) of a column store.
func NewTableScanRange(t *table.ColTable, lo, hi int) *TableScan {
	return &TableScan{T: t, lo: lo * table.ChunkRows, hi: min(hi*table.ChunkRows, t.Len())}
}

// Schema returns the table's schema.
func (s *TableScan) Schema() *table.Schema { return s.T.Schema }

// Open resets the cursor.
func (s *TableScan) Open() error {
	s.pos, s.end = s.lo, s.hi
	if s.end < 0 {
		s.end = s.T.Len()
	}
	return nil
}

// NextColBatch copies the next chunk onto dst.
func (s *TableScan) NextColBatch(dst *table.ColBatch) (int, error) {
	if s.pos >= s.end {
		return 0, nil
	}
	n := s.T.ReadChunk(s.pos/table.ChunkRows, s.need, dst)
	s.pos += n
	return n, nil
}

// NextBatch materializes up to len(dst) rows into reused slot buffers.
func (s *TableScan) NextBatch(dst []table.Tuple) (int, error) {
	w := s.T.Schema.Len()
	k := 0
	for ; k < len(dst) && s.pos < s.end; k++ {
		buf := s.slots.slot(k, w)
		s.T.WriteRow(s.pos, buf)
		dst[k] = buf
		s.pos++
	}
	return k, nil
}

// Close is a no-op.
func (s *TableScan) Close() error { return nil }
