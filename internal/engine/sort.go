package engine

import (
	"repro/internal/fault"
	"repro/internal/storage"
	"repro/internal/table"
)

// SortSpec names the columns to order by, in priority order. All sorts are
// ascending; the confidence operator only needs grouping, not direction.
type SortSpec struct {
	Cols []int
}

// Compare orders two tuples under the spec.
func (s SortSpec) Compare(a, b table.Tuple) int { return table.CompareOn(a, b, s.Cols) }

// Sort materializes and orders its input using the external sorter, so that
// inputs beyond the memory budget spill to disk. The paper's lazy plans are
// dominated by exactly this step: "the time needed ... to compute and store
// on disk the answer tuples ... ordered as required by our operator" (§VII).
type Sort struct {
	In     Operator
	Spec   SortSpec
	Budget int             // tuples held in memory; 0 = storage.DefaultSortBudget
	TmpDir string          // "" = os.TempDir()
	Mem    *fault.Governor // optional memory governor: spill earlier under pressure

	sorted iterOp // the sorter's output stream, set by Open
	spills int
}

// NewSort builds a sort operator.
func NewSort(in Operator, spec SortSpec) *Sort { return &Sort{In: in, Spec: spec} }

// Schema returns the input schema.
func (s *Sort) Schema() *table.Schema { return s.In.Schema() }

// Spills reports how many runs the last Open spilled to disk.
func (s *Sort) Spills() int { return s.spills }

// Open drains and sorts the input, batch by batch. Tuples from stable
// inputs feed the sorter directly; everything else is cloned through a slab
// (one allocation per ~4k values instead of one per tuple).
func (s *Sort) Open() error {
	if err := s.In.Open(); err != nil {
		return err
	}
	sorter := storage.NewExternalSorter(s.Spec.Compare, s.Budget, s.TmpDir)
	sorter.Govern(s.Mem)
	if err := drainEach(s.In, sorter.Add); err != nil {
		s.In.Close()
		sorter.Discard()
		return err
	}
	if err := s.In.Close(); err != nil {
		sorter.Discard()
		return err
	}
	it, err := sorter.Finish()
	if err != nil {
		return err
	}
	s.sorted = iterOp{schema: s.In.Schema(), it: it}
	s.spills = sorter.Spills()
	return nil
}

// NextBatch streams sorted tuples. The sorted stream owns its tuples (an
// in-memory buffer or heap-file decodes), so batches are stable.
func (s *Sort) NextBatch(dst []table.Tuple) (int, error) { return s.sorted.NextBatch(dst) }

// StableTuples: sorted tuples are owned by the sorter's materialized buffer
// or decoded fresh from spill files; they are never overwritten.
func (s *Sort) StableTuples() bool { return true }

// Close releases the sorted stream (removing any spill files).
func (s *Sort) Close() error { return s.sorted.Close() }

// iterOp adapts a sorted TupleIterator (an external sorter's output) into
// an Operator: Sort's output stream, and the grace join's sorted right
// input. Close releases the iterator, removing any spill runs.
type iterOp struct {
	schema *table.Schema
	it     storage.TupleIterator
}

func (o *iterOp) Schema() *table.Schema { return o.schema }
func (o *iterOp) Open() error           { return nil }
func (o *iterOp) NextBatch(dst []table.Tuple) (int, error) {
	if o.it == nil {
		return 0, nil
	}
	return fillBatch(dst, o.it.Next)
}

// StableTuples: sorted streams own their tuples (in-memory buffer or fresh
// spill-file decodes), matching Sort's contract.
func (o *iterOp) StableTuples() bool { return true }

func (o *iterOp) Close() error {
	if o.it == nil {
		return nil
	}
	err := o.it.Close()
	o.it = nil
	return err
}
