package engine

import (
	"context"
	"fmt"

	"repro/internal/pool"
	"repro/internal/table"
)

// This file is the partition-parallel side of the executor: chunked
// evaluation of per-tuple pipelines over base tables' column stores
// (parallel scans) and a hash-partitioned join, both driven by the shared
// worker pool of internal/pool. Both produce output that is a deterministic
// function of their input alone — independent of the worker count and of
// scheduling — which is what lets the engine guarantee bit-identical
// results for workers=1 and workers=N.

// ParallelMinRows is the input size below which the parallel paths fall back
// to serial execution; see pool.ParallelMinRows.
const ParallelMinRows = pool.ParallelMinRows

// CollectChunks evaluates a per-tuple operator pipeline over a base table's
// column store in parallel: the table's chunks are split into contiguous
// runs, one per worker, each worker runs its own pipeline instance (built by
// wrap over a scan of its run) and the outputs are concatenated in run
// order. Because the pipeline is row-wise and order-preserving, the result
// equals a serial wrap(NewTableScan(t)) collection regardless of the worker
// count — so the worker count never changes the output, only the
// wall-clock.
//
// wrap must build a fresh, independent pipeline on every call: instances run
// concurrently. They only read the table's chunks.
func CollectChunks(ctx context.Context, p *pool.Pool, t *table.ColTable, wrap func(Operator) (Operator, error)) (*table.Relation, error) {
	return collectChunks(ctx, p, t, wrap, CollectCtx)
}

// CollectChunksVec is CollectChunks with each run's pipeline lowered to the
// columnar tier when possible (CollectCtxVec): the same rows in the same
// order, at vectorized speed.
func CollectChunksVec(ctx context.Context, p *pool.Pool, t *table.ColTable, wrap func(Operator) (Operator, error)) (*table.Relation, error) {
	return collectChunks(ctx, p, t, wrap, func(ctx context.Context, op Operator) (*table.Relation, error) {
		out, _, err := CollectCtxVec(ctx, op)
		return out, err
	})
}

func collectChunks(ctx context.Context, p *pool.Pool, t *table.ColTable, wrap func(Operator) (Operator, error), collect func(context.Context, Operator) (*table.Relation, error)) (*table.Relation, error) {
	if !p.Parallel() || t.Len() < ParallelMinRows {
		op, err := wrap(NewTableScan(t))
		if err != nil {
			return nil, err
		}
		return collect(ctx, op)
	}
	n, runs := t.Chunks(), p.Workers()
	parts := make([]*table.Relation, runs)
	err := p.Do(ctx, runs, func(i int) error {
		op, err := wrap(NewTableScanRange(t, i*n/runs, (i+1)*n/runs))
		if err != nil {
			return err
		}
		out, err := collect(ctx, op)
		if err != nil {
			return err
		}
		parts[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := table.NewRelation(parts[0].Schema)
	for _, part := range parts {
		out.Rows = append(out.Rows, part.Rows...)
	}
	return out, nil
}

// PartitionedHashJoin is the partition-parallel equi-join: both inputs are
// drained and split by join-key hash into a fixed number of partitions, the
// per-partition hash joins run on the worker pool, and the partition outputs
// are concatenated in partition order. Matching keys land in the same
// partition by construction, so the result is the same multiset as
// HashJoin's; the row order is a deterministic function of the inputs and
// the partition count — never of the worker count or scheduling.
type PartitionedHashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []int
	Pool                *pool.Pool
	Ctx                 context.Context
	out                 *table.Schema
	rows                []table.Tuple
	pos                 int
}

// joinPartitions is the fixed fan-out of a partitioned join. It must not
// depend on the worker count: the partition boundaries shape the output
// order, and the engine promises order stability across worker counts.
const joinPartitions = 16

// NewPartitionedHashJoin builds a partition-parallel join over the pool.
func NewPartitionedHashJoin(left, right Operator, leftKeys, rightKeys []int, p *pool.Pool, ctx context.Context) (*PartitionedHashJoin, error) {
	if len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("engine: hash join key arity mismatch")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &PartitionedHashJoin{
		Left: left, Right: right,
		LeftKeys: leftKeys, RightKeys: rightKeys,
		Pool: p, Ctx: ctx,
		out: left.Schema().Concat(right.Schema()),
	}, nil
}

// Schema returns left ++ right.
func (j *PartitionedHashJoin) Schema() *table.Schema { return j.out }

// drainStable materializes an operator's output with stable row storage.
// A MemScan already yields rows owned by an in-memory relation (the
// parallel leaf pipelines and staged intermediates hand those in), so its
// relation is reused as-is instead of clone-copying every tuple a second
// time; everything else goes through the batched collector.
func drainStable(ctx context.Context, op Operator) (*table.Relation, error) {
	if ms, ok := op.(*MemScan); ok {
		return ms.Rel, nil
	}
	return CollectCtx(ctx, op)
}

// Open drains both inputs, hashes every row's join key once, and joins
// them (joinHashed).
func (j *PartitionedHashJoin) Open() error {
	left, err := drainStable(j.Ctx, j.Left)
	if err != nil {
		return err
	}
	right, err := drainStable(j.Ctx, j.Right)
	if err != nil {
		return err
	}
	j.rows, err = joinHashed(j.Ctx, j.Pool,
		left.Rows, hashRows(left.Rows, j.LeftKeys),
		right.Rows, hashRows(right.Rows, j.RightKeys),
		j.LeftKeys, j.RightKeys)
	j.pos = 0
	return err
}

// hashRows computes every row's table.HashOn over the key columns.
func hashRows(rows []table.Tuple, keys []int) []uint64 {
	hashes := make([]uint64, len(rows))
	for i, t := range rows {
		hashes[i] = table.HashOn(t, keys)
	}
	return hashes
}

// joinHashed is the body both partitioned joins share, over materialized
// inputs whose join-key hashes (table.HashOn) are carried alongside: split
// both sides by hash into joinPartitions parts, build and probe each part on
// the pool, and concatenate the outputs in partition order. Matching keys
// land in the same partition by construction. Small inputs skip the
// partitioning: one serial build+probe costs less than 16-way hashing plus
// pool dispatch. The switch depends only on the input sizes (never on the
// worker count), so the output order stays a deterministic function of the
// inputs.
func joinHashed(ctx context.Context, p *pool.Pool, left []table.Tuple, lh []uint64, right []table.Tuple, rh []uint64, lk, rk []int) ([]table.Tuple, error) {
	if len(left)+len(right) < ParallelMinRows {
		return joinPartitionHashed(left, lh, right, rh, lk, rk), nil
	}
	lParts, lhParts := partitionHashed(left, lh)
	rParts, rhParts := partitionHashed(right, rh)
	outs := make([][]table.Tuple, joinPartitions)
	err := p.Do(ctx, joinPartitions, func(i int) error {
		outs[i] = joinPartitionHashed(lParts[i], lhParts[i], rParts[i], rhParts[i], lk, rk)
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, part := range outs {
		total += len(part)
	}
	rows := make([]table.Tuple, 0, total)
	for _, part := range outs {
		rows = append(rows, part...)
	}
	return rows, nil
}

// partitionHashed splits rows by hash into joinPartitions buckets,
// preserving input order within each — exactly table.PartitionOn's
// assignment, with the hashes carried instead of recomputed.
func partitionHashed(rows []table.Tuple, hashes []uint64) ([][]table.Tuple, [][]uint64) {
	parts := make([][]table.Tuple, joinPartitions)
	hparts := make([][]uint64, joinPartitions)
	for i, t := range rows {
		p := int(hashes[i] % joinPartitions)
		parts[p] = append(parts[p], t)
		hparts[p] = append(hparts[p], hashes[i])
	}
	return parts, hparts
}

// joinPartitionHashed joins one partition: it builds a hash table over the
// right rows and probes it with the left rows in order, reusing the carried
// hashes (AddHashed, LookupHashed), and emits each left row's matches First
// then Rest. Output rows are allocated from a per-partition slab (they are
// retained by the caller).
func joinPartitionHashed(left []table.Tuple, lh []uint64, right []table.Tuple, rh []uint64, lk, rk []int) []table.Tuple {
	if len(left) == 0 || len(right) == 0 {
		return nil
	}
	built := table.NewTupleMap(rk, len(right))
	for i, t := range right {
		built.AddHashed(rh[i], t)
	}
	var out []table.Tuple
	var slab table.Slab
	emit := func(l, r table.Tuple) {
		row := slab.Alloc(len(l) + len(r))
		copy(row, l)
		copy(row[len(l):], r)
		out = append(out, row)
	}
	for i, l := range left {
		g, ok := built.LookupHashed(lh[i], l, lk)
		if !ok {
			continue
		}
		emit(l, g.First)
		for _, r := range g.Rest {
			emit(l, r)
		}
	}
	return out
}

// NextBatch streams the materialized join result.
func (j *PartitionedHashJoin) NextBatch(dst []table.Tuple) (int, error) {
	n := copy(dst, j.rows[j.pos:])
	j.pos += n
	return n, nil
}

// StableTuples: the join result is materialized in slab storage.
func (j *PartitionedHashJoin) StableTuples() bool { return true }

// Close drops the materialized result.
func (j *PartitionedHashJoin) Close() error {
	j.rows = nil
	return nil
}
