package engine

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/table"
)

// HashJoin is an equi-join: it builds a hash table on one input and probes
// it with the other. Ungoverned, Open builds on the input with fewer rows —
// the left iff |L| < |R|, ties keeping the right — found by pulling both
// inputs in turn (raceInputs). Governed, it always builds on the right and
// may degrade to grace mode (gracejoin.go). The build side is keyed by
// table.HashOn hashes with Compare-based collision chains, so neither
// building nor probing renders per-row key strings. The output schema is
// left ++ right whichever side is built; rows come out in probe-input order,
// each probe row's matches First then Rest — left-input order for a right
// build, right-input order for a left build. The planner projects away the
// duplicated join attributes afterwards (the paper assumes join attributes
// share names across tables).
type HashJoin struct {
	Left, Right        Operator
	LeftKeys, RightKey []int
	Mem                *fault.Governor // optional: charge the build side, degrade to grace mode on denial
	SortBudget         int             // grace-mode sort budget (tuples); 0 = storage.DefaultSortBudget
	TmpDir             string          // grace-mode spill dir; "" = os.TempDir()
	Ctx                context.Context // optional: checked at every batch boundary of Open's input race
	Stats              *JoinStats      // optional: receives the build side Open chose
	out                *table.Schema
	built              *table.TupleMap
	buildLeft          bool     // the table holds the left input, the right probes it
	probe              Operator // the input streamed against the table
	probeKeys          []int
	grace              *MergeJoin    // non-nil after a memory-pressured Open
	graced             bool          // sticky across Close: the last Open degraded
	in                 []table.Tuple // probe batch: the race's buffered prefix first, then reused
	inN, inPos         int
	cur                table.Group // matches for the current probe tuple
	curLen             int         // 1+len(cur.Rest), 0 when no match
	curProbe           table.Tuple
	curPos             int
	slots              slotBufs
}

// NewHashJoin joins left and right on pairwise-equal key columns.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []int) (*HashJoin, error) {
	if len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("engine: hash join key arity mismatch")
	}
	return &HashJoin{
		Left: left, Right: right,
		LeftKeys: leftKeys, RightKey: rightKeys,
		out: left.Schema().Concat(right.Schema()),
	}, nil
}

// Schema returns left ++ right.
func (j *HashJoin) Schema() *table.Schema { return j.out }

// raceInputs decides the build side of an ungoverned serial hash join, the
// one rule both the row and the columnar join follow: build on the left iff
// it has fewer rows than the right; ties keep the right. pull[0] and pull[1]
// each pull and buffer one batch of the left and the right input and return
// its row count, 0 at the end of the stream. The side with fewer rows pulled
// so far goes next, and pulling stops once the rule is decided, so neither
// side buffers more than min(|L|, |R|) rows plus one batch; the side chosen
// for the build is always exhausted. The decision depends on the row counts
// alone, never on batch sizes. ctx (nil = none) is checked before each pull.
func raceInputs(ctx context.Context, pull [2]func() (int, error)) (buildLeft bool, err error) {
	var rows [2]int
	var done [2]bool
	for {
		switch {
		case done[0] && done[1]:
			return rows[0] < rows[1], nil
		case done[0] && rows[1] > rows[0]:
			return true, nil
		case done[1] && rows[0] >= rows[1]:
			return false, nil
		}
		side := 0
		if done[0] || (!done[1] && rows[1] < rows[0]) {
			side = 1
		}
		if ctx != nil && ctx.Err() != nil {
			return false, ctx.Err()
		}
		n, err := pull[side]()
		if err != nil {
			return false, err
		}
		rows[side] += n
		done[side] = n == 0
	}
}

// Open builds the hash table — on the smaller input when ungoverned, on the
// right input under a governor. With a governor set, the build side is
// charged as it grows; a denied reservation degrades the join to grace
// (sort-merge) mode instead of failing — see gracejoin.go. A failed Open
// leaves the join fully closed (children included): collectors do not Close
// a tree whose Open errored, so every operator must release what it acquired
// — child scanners' pinned pages, a grace sorter's spill runs — before
// surfacing the error (Close is idempotent throughout the engine, so
// re-closing an input some error path already closed is safe).
func (j *HashJoin) Open() error {
	j.grace = nil
	j.graced = false
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		j.Left.Close()
		return err
	}
	var err error
	if j.Mem != nil {
		err = j.openGoverned()
	} else {
		err = j.openRaced()
	}
	if err != nil {
		j.Left.Close()
		j.Right.Close()
		return err
	}
	j.cur = table.Group{}
	j.curLen, j.curPos = 0, 0
	return nil
}

// openGoverned builds on the right input under the governor, handing off to
// grace mode when a reservation is denied.
func (j *HashJoin) openGoverned() error {
	built, buffered, pressured, err := buildGoverned(j.Right, j.RightKey, j.Mem)
	if err != nil {
		return err
	}
	if pressured {
		return j.openGrace(buffered)
	}
	j.built, j.buildLeft = built, false
	j.probe, j.probeKeys = j.Left, j.LeftKeys
	j.inN, j.inPos = 0, 0
	return nil
}

// openRaced races the two inputs (raceInputs), builds the table from the
// chosen side's buffered rows, and queues the other side's buffered prefix
// as the first probe rows. Buffered tuples are slab-cloned unless their
// source promises StableTuples.
func (j *HashJoin) openRaced() error {
	ops := [2]Operator{j.Left, j.Right}
	var bufs [2][]table.Tuple
	var slab table.Slab
	batch := make([]table.Tuple, BatchSize)
	var pull [2]func() (int, error)
	for side := range pull {
		op, stable := ops[side], Stable(ops[side])
		pull[side] = func() (int, error) {
			n, err := op.NextBatch(batch)
			for _, t := range batch[:n] {
				if !stable {
					t = slab.Clone(t)
				}
				bufs[side] = append(bufs[side], t) //sproutvet:allow batchalias t is slab-cloned above unless the source promises StableTuples — drainCtx's conditional-stability idiom
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
	buildKeys := j.RightKey
	if buildLeft {
		b, p = 0, 1
		j.probe, j.probeKeys = j.Right, j.RightKey
		buildKeys = j.LeftKeys
	}
	// The map deliberately starts empty: presizing by row count
	// over-allocates heavily on repeated join keys (FK joins) and measures
	// slower.
	built := table.NewTupleMap(buildKeys, 0)
	for _, t := range bufs[b] {
		built.Add(t)
	}
	j.built, j.buildLeft = built, buildLeft
	j.in, j.inN, j.inPos = bufs[p], len(bufs[p]), 0
	if j.Stats != nil {
		j.Stats.BuildLeft, j.Stats.BuildRows = buildLeft, int64(len(bufs[b]))
	}
	return nil
}

// NextBatch fills dst with joined tuples built in reused per-slot buffers.
// The current probe tuple references the join's probe batch, which is only
// refilled once its matches are exhausted, so no probe-side clone is needed.
func (j *HashJoin) NextBatch(dst []table.Tuple) (int, error) {
	if j.grace != nil {
		return j.grace.NextBatch(dst)
	}
	n := 0
	for n < len(dst) {
		if j.curPos < j.curLen {
			m := j.cur.First
			if j.curPos > 0 {
				m = j.cur.Rest[j.curPos-1]
			}
			j.curPos++
			l, r := j.curProbe, m
			if j.buildLeft {
				l, r = m, j.curProbe
			}
			buf := j.slots.slot(n, j.out.Len())
			copy(buf, l)
			copy(buf[len(l):], r)
			dst[n] = buf
			n++
			continue
		}
		if j.inPos >= j.inN {
			j.in = batchScratch(j.in, BatchSize)
			k, err := j.probe.NextBatch(j.in)
			if err != nil {
				return 0, err
			}
			if k == 0 {
				return n, nil
			}
			j.inN, j.inPos = k, 0
		}
		//sproutvet:allow batchalias probe cursor lives only until j.in is refilled, and its matches drain first (see NextBatch doc)
		j.curProbe = j.in[j.inPos]
		j.inPos++
		g, ok := j.built.Lookup(j.curProbe, j.probeKeys)
		j.cur = g
		j.curLen = 0
		if ok {
			j.curLen = 1 + len(g.Rest)
		}
		j.curPos = 0
	}
	return n, nil
}

// Close closes both inputs and drops the hash table. In grace mode the
// merge join owns the left input (via its wrapping Sort) and the sorted
// right stream; the drained right input is closed here.
func (j *HashJoin) Close() error {
	j.built, j.in, j.curProbe = nil, nil, nil
	if j.grace != nil {
		g := j.grace
		j.grace = nil
		errG := g.Close()
		errR := j.Right.Close()
		if errG != nil {
			return errG
		}
		return errR
	}
	errL := j.Left.Close()
	errR := j.Right.Close()
	if errL != nil {
		return errL
	}
	return errR
}

// MergeJoin equi-joins two inputs already sorted on their join keys. Blocks
// of equal right keys are buffered to form the cross product with each
// matching left tuple. The output order (sorted by join keys) is what makes
// merge joins attractive right below the confidence operator, whose input
// must be sorted anyway (§V.B: "the order of tuples after most joins favours
// grouping and thus our operator").
//
// Both inputs are read batch by batch through reused cursors. The current
// left and right tuples are never retained past their own batch, so they
// are read in place; a buffered right block can outlive the right batch it
// came from and is slab-cloned unless the right input promises StableTuples.
type MergeJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []int
	out                 *table.Schema

	l, r     mergeCursor
	rStable  bool
	block    []table.Tuple // buffered right block with equal keys; block[0] is its key
	blockPos int
	inBlock  bool
	slab     table.Slab // block clones of an unstable right input
	slots    slotBufs
}

// mergeCursor reads one input of a MergeJoin batch by batch. t is the tuple
// under the cursor (ok=false once the input is exhausted); it lives in the
// cursor's current batch, which is refilled only when advance moves past its
// last tuple.
type mergeCursor struct {
	op     Operator
	buf    []table.Tuple
	n, pos int
	t      table.Tuple
	ok     bool
}

// open binds the cursor to op and moves it onto the first tuple.
func (c *mergeCursor) open(op Operator) error {
	c.op, c.buf, c.n, c.pos = op, batchScratch(c.buf, BatchSize), 0, 0
	return c.advance()
}

// advance moves the cursor to the next input tuple.
func (c *mergeCursor) advance() error {
	if c.pos >= c.n {
		n, err := c.op.NextBatch(c.buf)
		if err != nil {
			return err
		}
		c.n, c.pos = n, 0
	}
	c.ok = c.pos < c.n
	c.t = nil
	if c.ok {
		//sproutvet:allow batchalias the cursor tuple is read only until advance moves past it, and the batch is refilled only after its last tuple
		c.t = c.buf[c.pos]
		c.pos++
	}
	return nil
}

// NewMergeJoin joins sorted inputs on pairwise-equal key columns.
func NewMergeJoin(left, right Operator, leftKeys, rightKeys []int) (*MergeJoin, error) {
	if len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("engine: merge join key arity mismatch")
	}
	return &MergeJoin{
		Left: left, Right: right,
		LeftKeys: leftKeys, RightKeys: rightKeys,
		out: left.Schema().Concat(right.Schema()),
	}, nil
}

// Schema returns left ++ right.
func (j *MergeJoin) Schema() *table.Schema { return j.out }

// Open opens both inputs and primes the cursors. Like every engine Open, a
// failure leaves the join fully closed, children included.
func (j *MergeJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		j.Left.Close()
		return err
	}
	if err := j.l.open(j.Left); err != nil {
		j.Left.Close()
		j.Right.Close()
		return err
	}
	if err := j.r.open(j.Right); err != nil {
		j.Left.Close()
		j.Right.Close()
		return err
	}
	j.rStable = Stable(j.Right)
	j.block = j.block[:0]
	j.inBlock = false
	return nil
}

func (j *MergeJoin) cmpKeys(l, r table.Tuple) int {
	for i := range j.LeftKeys {
		if c := table.Compare(l[j.LeftKeys[i]], r[j.RightKeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// cmpRightKeys compares two right-side tuples; the block key is a right
// tuple, so indexing it with LeftKeys would read the wrong columns (or past
// the end) whenever the two key layouts differ.
func (j *MergeJoin) cmpRightKeys(a, b table.Tuple) int {
	for i := range j.RightKeys {
		if c := table.Compare(a[j.RightKeys[i]], b[j.RightKeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// NextBatch emits joined tuples into reused per-slot buffers.
func (j *MergeJoin) NextBatch(dst []table.Tuple) (int, error) {
	n := 0
	for n < len(dst) {
		if j.inBlock {
			if j.blockPos < len(j.block) {
				buf := j.slots.slot(n, j.out.Len())
				copy(buf, j.l.t)
				copy(buf[len(j.l.t):], j.block[j.blockPos])
				dst[n] = buf
				j.blockPos++
				n++
				continue
			}
			// Done pairing the current left tuple with the block; advance left.
			if err := j.l.advance(); err != nil {
				return 0, err
			}
			if j.l.ok && j.cmpKeys(j.l.t, j.block[0]) == 0 {
				j.blockPos = 0
				continue
			}
			j.inBlock = false
		}
		if !j.l.ok || !j.r.ok {
			break
		}
		c := j.cmpKeys(j.l.t, j.r.t)
		switch {
		case c < 0:
			if err := j.l.advance(); err != nil {
				return 0, err
			}
		case c > 0:
			if err := j.r.advance(); err != nil {
				return 0, err
			}
		default:
			// Buffer the whole right block with this key; it may span
			// several right batches.
			j.block = j.block[:0]
			for j.r.ok && (len(j.block) == 0 || j.cmpRightKeys(j.block[0], j.r.t) == 0) {
				t := j.r.t
				if !j.rStable {
					t = j.slab.Clone(t)
				}
				j.block = append(j.block, t) //sproutvet:allow batchalias t is slab-cloned above unless the right input promises StableTuples — drainCtx's conditional-stability idiom
				if err := j.r.advance(); err != nil {
					return 0, err
				}
			}
			j.blockPos = 0
			j.inBlock = true
		}
	}
	return n, nil
}

// Close closes both inputs.
func (j *MergeJoin) Close() error {
	j.l.t, j.r.t, j.block, j.slab = nil, nil, nil, table.Slab{}
	errL := j.Left.Close()
	errR := j.Right.Close()
	if errL != nil {
		return errL
	}
	return errR
}
