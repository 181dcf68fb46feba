package engine

import (
	"context"

	"repro/internal/pool"
	"repro/internal/table"
)

// Columnar hash joins. Both joins hash whole probe/build batches at once
// with ColBatch.HashInto — the vectorized form of table.HashOn, bit-identical
// per row — and share TupleMap with the row engine, so a columnar build side
// holds exactly the groups a row build would and emits matches in the same
// order (probe rows in probe-input order, First then Rest per group). The
// serial ColHashJoin picks its build side with the row join's rule
// (raceInputs), so the two tiers also agree on which input is probed. That
// order identity is what keeps confidences pinned across the two tiers.

// ColHashJoin is the columnar equi-join. Open races the inputs with the row
// HashJoin's rule — build on the left iff |L| < |R|, ties keeping the right
// — buffering deep copies of the batches it pulls, and drains the chosen
// side into a TupleMap (rows materialized from its column batches). The
// other side's batches then probe it with vectorized hashes, the buffered
// prefix first. Output rows are left ++ right: probe cells are gathered
// column-wise (ColVec.AppendCell — typed, allocation-free) and the matched
// build tuples' cells appended on their side. One output batch carries all
// matches of one probe batch, so it may exceed BatchSize on multi-matching
// keys.
type ColHashJoin struct {
	Left, Right         ColOperator
	LeftKeys, RightKeys []int
	Ctx                 context.Context // optional: checked at every batch boundary of Open's input race
	Stats               *JoinStats      // optional: receives the build side Open chose
	out                 *table.Schema
	built               *table.TupleMap
	buildLeft           bool // the table holds the left input, the right probes it
	probe               ColOperator
	probeKeys           []int
	pending             []*table.ColBatch // buffered probe prefix, consumed first
	in                  *table.ColBatch
	hashes              []uint64
}

// Schema returns left ++ right.
func (j *ColHashJoin) Schema() *table.Schema { return j.out }

// Open opens both inputs, races them for the build side, and builds the
// hash table. Like every engine Open, a failure leaves the join fully
// closed, children included.
func (j *ColHashJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		j.Left.Close()
		return err
	}
	if err := j.openRaced(); err != nil {
		j.Left.Close()
		j.Right.Close()
		return err
	}
	return nil
}

// openRaced is HashJoin.openRaced for column batches: each pulled batch is
// buffered as a compacted deep copy (producers reuse batch storage and
// string dictionaries), the chosen side is built, and the other side's
// copies become the probe prefix.
func (j *ColHashJoin) openRaced() error {
	ops := [2]ColOperator{j.Left, j.Right}
	var bufs [2][]*table.ColBatch
	var pull [2]func() (int, error)
	for side := range pull {
		op := ops[side]
		scratch := table.NewColBatch(op.Schema())
		pull[side] = func() (int, error) {
			n, err := op.NextColBatch(scratch)
			if n > 0 && err == nil {
				bufs[side] = append(bufs[side], copyColBatch(scratch))
			}
			return n, err
		}
	}
	buildLeft, err := raceInputs(j.Ctx, pull)
	if err != nil {
		return err
	}
	b, p := 1, 0
	j.probe, j.probeKeys = j.Left, j.LeftKeys
	buildKeys := j.RightKeys
	if buildLeft {
		b, p = 0, 1
		j.probe, j.probeKeys = j.Right, j.RightKeys
		buildKeys = j.LeftKeys
	}
	j.built, j.buildLeft = colBuild(bufs[b], buildKeys), buildLeft
	j.pending = bufs[p]
	if j.in == nil || j.in.Schema != j.probe.Schema() {
		j.in = table.NewColBatch(j.probe.Schema())
	}
	if j.Stats != nil {
		rows := 0
		for _, bb := range bufs[b] {
			rows += bb.N
		}
		j.Stats.BuildLeft, j.Stats.BuildRows = buildLeft, int64(rows)
	}
	return nil
}

// copyColBatch deep-copies the live rows of b into a fresh batch with no
// selection vector. AppendCell copies typed cells and flat string bytes and
// keeps dictionary cells as their immutable strings, so nothing aliases the
// producer's reused column storage or dictionary.
func copyColBatch(b *table.ColBatch) *table.ColBatch {
	c := table.NewColBatch(b.Schema)
	n := b.Rows()
	for i := 0; i < n; i++ {
		row := b.RowID(i)
		for k := range b.Cols {
			c.Cols[k].AppendCell(c.N, &b.Cols[k], row)
		}
		c.N++
	}
	return c
}

// colBuild materializes buffered column batches into a TupleMap keyed on
// the given columns: each batch is hashed in one vectorized pass, then its
// rows are materialized into slab storage and inserted under the
// precomputed hashes. Insertion order matches the row build (input order),
// so the map's group order — and therefore the join's output order — is
// identical.
func colBuild(batches []*table.ColBatch, keys []int) *table.TupleMap {
	// The map deliberately starts empty, as the row build does: presizing
	// by row count over-allocates heavily on repeated join keys.
	built := table.NewTupleMap(keys, 0)
	var slab table.Slab
	var hashes []uint64
	for _, b := range batches {
		w := b.Schema.Len()
		hashes = b.HashInto(keys, hashes)
		for i := 0; i < b.N; i++ {
			t := slab.Alloc(w)
			b.WriteRow(i, t)
			built.AddHashed(hashes[i], t)
		}
	}
	return built
}

// NextColBatch probes with the next probe batch — the buffered prefix
// first, then the probe input — emitting every match.
func (j *ColHashJoin) NextColBatch(dst *table.ColBatch) (int, error) {
	for {
		in := j.in
		if len(j.pending) > 0 {
			in = j.pending[0]
			j.pending[0] = nil
			j.pending = j.pending[1:]
		} else {
			n, err := j.probe.NextColBatch(in)
			if err != nil {
				return 0, err
			}
			if n == 0 {
				return 0, nil
			}
		}
		n := in.Rows()
		j.hashes = in.HashInto(j.probeKeys, j.hashes)
		dst.Reset(j.out)
		for i := 0; i < n; i++ {
			row := in.RowID(i)
			g, ok := j.built.LookupHashedCols(j.hashes[i], in, j.probeKeys, row)
			if !ok {
				continue
			}
			j.emit(dst, in, row, g.First)
			for _, r := range g.Rest {
				j.emit(dst, in, row, r)
			}
		}
		if dst.N > 0 {
			return dst.N, nil
		}
	}
}

// emit appends one joined row: the probe row's cells gathered column-wise
// from its batch, the matched build tuple's cells from storage, each on its
// own side of the left ++ right layout.
func (j *ColHashJoin) emit(dst, in *table.ColBatch, row int, m table.Tuple) {
	probeOff, buildOff := 0, len(in.Cols)
	if j.buildLeft {
		probeOff, buildOff = len(m), 0
	}
	for c := range in.Cols {
		dst.Cols[probeOff+c].AppendCell(dst.N, &in.Cols[c], row)
	}
	for k, v := range m {
		dst.Cols[buildOff+k].AppendValue(dst.N, v)
	}
	dst.N++
}

// Close closes both inputs and drops the hash table and any unconsumed
// probe prefix.
func (j *ColHashJoin) Close() error {
	j.built, j.pending = nil, nil
	errL := j.Left.Close()
	errR := j.Right.Close()
	if errL != nil {
		return errL
	}
	return errR
}

// ColPartitionedHashJoin is the columnar PartitionedHashJoin: both inputs
// are drained with their join-key hashes computed batch-wise
// (ColBatch.HashInto, bit-identical to the row twin's table.HashOn) and
// joined by the same joinHashed body, so the output is byte-for-byte the
// row join's; it is streamed out as column batches.
type ColPartitionedHashJoin struct {
	Left, Right         ColOperator
	LeftKeys, RightKeys []int
	Pool                *pool.Pool
	Ctx                 context.Context
	out                 *table.Schema
	rows                []table.Tuple
	pos                 int
}

// Schema returns left ++ right.
func (j *ColPartitionedHashJoin) Schema() *table.Schema { return j.out }

// Open drains both inputs with their join-key hashes computed batch-wise
// and joins them (joinHashed).
func (j *ColPartitionedHashJoin) Open() error {
	left, lh, err := colDrainHashed(j.Ctx, j.Left, j.LeftKeys)
	if err != nil {
		return err
	}
	right, rh, err := colDrainHashed(j.Ctx, j.Right, j.RightKeys)
	if err != nil {
		return err
	}
	j.rows, err = joinHashed(j.Ctx, j.Pool, left, lh, right, rh, j.LeftKeys, j.RightKeys)
	j.pos = 0
	return err
}

// colDrainHashed materializes a columnar operator's stream (opening and
// closing it) along with each row's join-key hash, computed batch-wise. The
// context (if any) is checked once per batch.
func colDrainHashed(ctx context.Context, op ColOperator, keys []int) ([]table.Tuple, []uint64, error) {
	if err := op.Open(); err != nil {
		return nil, nil, err
	}
	defer op.Close()
	b := table.NewColBatch(op.Schema())
	w := op.Schema().Len()
	var slab table.Slab
	var rows []table.Tuple
	var all, batch []uint64
	for {
		if ctx != nil && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		n, err := op.NextColBatch(b)
		if err != nil {
			return nil, nil, err
		}
		if n == 0 {
			return rows, all, nil
		}
		batch = b.HashInto(keys, batch)
		for i := 0; i < n; i++ {
			t := slab.Alloc(w)
			b.WriteRow(i, t)
			rows = append(rows, t)
		}
		all = append(all, batch...)
	}
}

// NextColBatch streams the materialized join result as column batches.
func (j *ColPartitionedHashJoin) NextColBatch(dst *table.ColBatch) (int, error) {
	if j.pos >= len(j.rows) {
		return 0, nil
	}
	dst.Reset(j.out)
	for j.pos < len(j.rows) && dst.N < BatchSize {
		dst.AppendRow(j.rows[j.pos])
		j.pos++
	}
	return dst.N, nil
}

// Close drops the materialized result.
func (j *ColPartitionedHashJoin) Close() error {
	j.rows = nil
	return nil
}
