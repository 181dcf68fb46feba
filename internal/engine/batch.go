package engine

import (
	"context"

	"repro/internal/table"
)

// This file holds the batch plumbing shared by every row operator:
// operators move tuples in batches of up to BatchSize through reused
// buffers, so the per-tuple costs of the pull model — one interface call,
// one context check, one buffer allocation per row — are paid once per
// batch instead. The collectors (CollectCtx, Count) drive whole pipelines
// batch by batch with cancellation checks at batch boundaries.

// BatchSize is the default number of tuples moved per NextBatch call. Large
// enough to amortize per-batch overheads, small enough that a batch of
// typical tuples stays cache-resident.
const BatchSize = 1024

// StableTuples marks operators whose emitted tuples stay valid for the
// operator's whole lifetime (they never reuse tuple storage): in-memory and
// heap scans, sorts, materialized joins, and pass-through wrappers over such
// inputs. Consumers use it to skip defensive clones when materializing.
type StableTuples interface {
	StableTuples() bool
}

// Stable reports whether op promises stable output tuples.
func Stable(op Operator) bool {
	s, ok := op.(StableTuples)
	return ok && s.StableTuples()
}

// slotBufs is a reusable set of per-slot output buffers for operators that
// compute their output tuples (projections, join combiners): slot i of a
// batch writes into bufs[i], so all tuples of one batch are simultaneously
// valid while nothing is allocated after warm-up. The buffers are carved
// from shared backing arrays, a block of slots per allocation.
type slotBufs struct {
	bufs  []table.Tuple
	width int
}

// slotBlock is how many slot buffers share one backing array.
const slotBlock = 128

// slot returns the i-th buffer, sized to width values.
func (s *slotBufs) slot(i, width int) table.Tuple {
	if width != s.width {
		s.bufs = s.bufs[:0]
		s.width = width
	}
	for i >= len(s.bufs) {
		vals := make(table.Tuple, slotBlock*width)
		for k := 0; k < slotBlock; k++ {
			s.bufs = append(s.bufs, vals[k*width:(k+1)*width:(k+1)*width])
		}
	}
	return s.bufs[i]
}

// batchScratch sizes a reusable input batch to match the consumer's output
// batch, capped at BatchSize.
func batchScratch(buf []table.Tuple, want int) []table.Tuple {
	if want > BatchSize {
		want = BatchSize
	}
	if cap(buf) < want {
		return make([]table.Tuple, want)
	}
	return buf[:want]
}

// fillBatch adapts a tuple-at-a-time source to one batch without cloning:
// it pulls next() into dst until dst is full or the source dries up.
// Operators whose sources emit stable tuples (sorted streams, heap-file
// decodes, fresh group rows) build their NextBatch on it.
func fillBatch(dst []table.Tuple, next func() (table.Tuple, bool, error)) (int, error) {
	n := 0
	for n < len(dst) {
		t, ok, err := next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		dst[n] = t
		n++
	}
	return n, nil
}

// drainCtx pulls op's whole stream batch by batch and hands every tuple to
// emit, cloned through a slab unless op promises stable storage — the one
// copy of the materialization rule every drain site shares. The context (if
// any) is checked once per batch.
func drainCtx(ctx context.Context, op Operator, batchSize int, emit func(table.Tuple) error) error {
	if batchSize <= 0 {
		batchSize = BatchSize
	}
	buf := make([]table.Tuple, batchSize)
	stable := Stable(op)
	var slab table.Slab
	for {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		n, err := op.NextBatch(buf)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		for _, t := range buf[:n] {
			if !stable {
				t = slab.Clone(t)
			}
			if err := emit(t); err != nil {
				return err
			}
		}
	}
}

// drainEach is drainCtx without cancellation at the default batch size.
func drainEach(op Operator, emit func(table.Tuple) error) error {
	return drainCtx(nil, op, BatchSize, emit)
}

// CollectCtx drains an operator into an in-memory relation (opening and
// closing it), batch by batch: the context is checked once per batch, and
// tuples are cloned through a slab allocator — or aliased directly when the
// operator promises stable storage.
func CollectCtx(ctx context.Context, op Operator) (*table.Relation, error) {
	return CollectCtxBatch(ctx, op, BatchSize)
}

// CollectCtxBatch is CollectCtx with an explicit batch size — exposed so
// tests can pin result stability across batch sizes.
func CollectCtxBatch(ctx context.Context, op Operator, batchSize int) (*table.Relation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	rel := table.NewRelation(op.Schema())
	err := drainCtx(ctx, op, batchSize, func(t table.Tuple) error {
		rel.Rows = append(rel.Rows, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// Collect drains an operator into an in-memory relation.
func Collect(op Operator) (*table.Relation, error) {
	return CollectCtx(nil, op)
}

// Count drains an operator and returns only the row count.
func Count(op Operator) (int64, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	var n int64
	buf := make([]table.Tuple, BatchSize)
	for {
		k, err := op.NextBatch(buf)
		if err != nil {
			return 0, err
		}
		if k == 0 {
			return n, nil
		}
		n += int64(k)
	}
}
