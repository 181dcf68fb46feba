package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/conf"
	"repro/internal/plan"
	"repro/internal/signature"
	"repro/internal/storage"
	"repro/internal/table"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public function. Spans of one execution share
// its class id; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Class  string `json:"class"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, class string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Class: class, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil && i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// selfTimes sums, per span name, each span's duration minus the time its
// children cover (children never overlap: the traced pass is sequential).
func (t *tracer) selfTimes() (self map[string]float64, calls map[string]int) {
	self, calls = make(map[string]float64), make(map[string]int)
	for _, s := range t.spans {
		d := float64(s.End-s.Start) / 1e9
		self[s.Name] += d
		calls[s.Name]++
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self, calls
}

// layerTotal sums the durations of the layer calls made directly under an
// execution root: the traced pass's time inside the program, without the
// benchmark's own glue.
func (t *tracer) layerTotal() float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == "exec" {
			sum += float64(s.End-s.Start) / 1e9
		}
	}
	return sum
}

func (t *tracer) write(path string, summary any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Summary any    `json:"summary"`
		Spans   []span `json:"spans"`
	}{summary, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerCounts accumulates the counts the traced pass reads from the Stats
// each layer call returns.
type layerCounts struct {
	answerRows, answerAlloc int64 // plan.Answer: rows produced, bytes allocated
	scans                   int64 // conf.ComputeStats: sort+scan passes
	clauses                 int64 // conf.CollectLineage: lineage clauses
	obdd, dtree             tierCounts
	samples                 int64 // conf.MonteCarloLineage: samples drawn
	spillRuns               int64 // storage probe: ExternalSorter runs spilled
}

// tierCounts is what one lineage-compilation tier reports.
type tierCounts struct {
	work             int64 // OBDD nodes or d-tree steps
	memoHits, probes int64 // residual-memo hits and hits+misses
	exact, answers   int64 // answers resolved exactly, answers attempted
	alloc            int64 // bytes allocated inside the tier's calls
}

func (tc *tierCounts) add(work, hits, misses, exact, answers, alloc int64) {
	tc.work += work
	tc.memoHits += hits
	tc.probes += hits + misses
	tc.exact += exact
	tc.answers += answers
	tc.alloc += alloc
}

// tracedExec runs one class as a sequence of timed calls into the layers:
// plan.Prepare, then plan.Answer (the tuple phase in engine), then the
// confidence layer the style uses — conf.ComputeStats (sort+scan) for lazy
// plans, conf.CollectLineage followed by the OBDD, d-tree or Monte Carlo
// tier for the lineage styles. Auto is decomposed as the style it
// chooses. Eager and hybrid plans run their confidence operators inside
// the joins, so they get one span around plan.Run.
func (r *runner) tracedExec(in *instance, c *class, tr *tracer, lc *layerCounts) (answer, error) {
	e, cat := r.e, in.catalog
	root := tr.begin("exec", c.id, -1)
	defer tr.end(root)
	spec, gov := e.spec(c.style)
	runStyle := c.style
	if c.style == plan.Auto {
		chosen, _, err := plan.ChooseStyle(cat, c.q, c.sigma, spec)
		if err != nil {
			return answer{}, err
		}
		runStyle = chosen
	}
	if runStyle == plan.Eager || runStyle == plan.Hybrid {
		s := tr.begin("plan.run", c.id, root)
		res, err := plan.Run(cat, c.q, c.sigma, spec)
		tr.end(s)
		if err != nil {
			return answer{}, err
		}
		return fromStats(res.Rows, &res.Stats, spec.MC.Delta), nil
	}

	s := tr.begin("plan.prepare", c.id, root)
	_, err := plan.Prepare(cat, c.q, c.sigma, spec)
	tr.end(s)
	if err != nil {
		return answer{}, err
	}

	a0 := readRuntime().alloc
	s = tr.begin("engine.answer", c.id, root)
	rel, err := plan.Answer(cat, c.q)
	tr.end(s)
	lc.answerAlloc += int64(readRuntime().alloc - a0)
	if err != nil {
		return answer{}, err
	}
	lc.answerRows += int64(rel.Len())

	if runStyle == plan.Lazy {
		sig, err := signature.WithFDs(c.q, c.sigma)
		if err != nil {
			return answer{}, err
		}
		opts := conf.Options{TmpDir: spec.Conf.TmpDir, Mem: gov, Pool: r.pool}
		s = tr.begin("conf.sortscan", c.id, root)
		out, cs, err := conf.ComputeStats(rel, sig, opts)
		tr.end(s)
		if err != nil {
			return answer{}, err
		}
		lc.scans += int64(cs.Scans)
		return answer{rows: out, exact: true}, nil
	}

	s = tr.begin("conf.lineage", c.id, root)
	l, err := conf.CollectLineage(rel)
	tr.end(s)
	if err != nil {
		return answer{}, err
	}
	lc.clauses += l.Clauses
	ctx := context.Background()
	switch runStyle {
	case plan.OBDD:
		sig, err := signature.Best(c.q, c.sigma)
		if err != nil {
			sig = nil // no signature: interleaved-occurrence variable order
		}
		a0 := readRuntime().alloc
		s = tr.begin("obdd.compile", c.id, root)
		out, st, err := conf.OBDDLineage(ctx, r.pool, l, sig, spec.OBDD, false)
		tr.end(s)
		if err != nil {
			return answer{}, err
		}
		lc.obdd.add(st.Nodes, st.MemoHits, st.MemoMisses, st.ExactAnswers, st.OutputTuples, int64(readRuntime().alloc-a0))
		return answer{rows: out, exact: st.Bounded == 0, tol: st.MaxWidth / 2}, nil
	case plan.DTree:
		a0 := readRuntime().alloc
		s = tr.begin("dtree.compile", c.id, root)
		out, st, err := conf.DTreeLineage(ctx, r.pool, l, spec.DTree, false)
		tr.end(s)
		if err != nil {
			return answer{}, err
		}
		lc.dtree.add(st.Nodes, st.MemoHits, st.MemoMisses, st.ExactAnswers, st.OutputTuples, int64(readRuntime().alloc-a0))
		return answer{rows: out, exact: st.Bounded == 0, tol: st.MaxWidth / 2}, nil
	case plan.MonteCarlo:
		mco := spec.MC
		mco.Pool = r.pool
		s = tr.begin("prob.sample", c.id, root)
		out, st, err := conf.MonteCarloLineage(ctx, l, mco)
		tr.end(s)
		if err != nil {
			return answer{}, err
		}
		lc.samples += st.Samples
		return answer{rows: out, tol: st.MaxEpsilon, delta: mco.Delta}, nil
	}
	return answer{}, fmt.Errorf("no traced decomposition for style %s", runStyle)
}

// storageProbe times the storage layer directly, once per traced pass of
// the disk workload: a heap Scanner over every table through the shared
// buffer pool, then an ExternalSorter under the workload's memory budget
// over the Ord table (by odate, okey). It checks row counts and sort order.
func (r *runner) storageProbe(tr *tracer, lc *layerCounts) error {
	e, in := r.e, r.e.insts[0]
	var ord []table.Tuple
	s := tr.begin("storage.scan", "probe", -1)
	for _, name := range in.catalog.Names() {
		b := in.catalog.Disk(name)
		sc := b.File.NewScanner(b.Pool)
		n := 0
		for {
			t, ok, err := sc.Next()
			if err != nil {
				sc.Close()
				tr.end(s)
				return fmt.Errorf("scanning %s: %w", name, err)
			}
			if !ok {
				break
			}
			n++
			if name == "Ord" {
				ord = append(ord, t) // scanner tuples are arena-backed and may be kept
			}
		}
		sc.Close()
		if n != b.Rows {
			tr.end(s)
			return fmt.Errorf("scan of %s returned %d rows, want %d", name, n, b.Rows)
		}
	}
	tr.end(s)

	ordTable, _ := in.catalog.Table("Ord")
	key := []int{ordTable.Rel.Schema.MustColIndex("odate"), ordTable.Rel.Schema.MustColIndex("okey")}
	cmp := func(a, b table.Tuple) int { return table.CompareOn(a, b, key) }
	s = tr.begin("storage.sort", "probe", -1)
	defer tr.end(s)
	sorter := storage.NewExternalSorter(cmp, 0, e.spillDir)
	_, gov := e.spec(plan.Lazy)
	sorter.Govern(gov)
	for _, t := range ord {
		if err := sorter.Add(t); err != nil {
			sorter.Discard()
			return fmt.Errorf("sorting Ord: %w", err)
		}
	}
	it, err := sorter.Finish()
	if err != nil {
		return fmt.Errorf("sorting Ord: %w", err)
	}
	var prev table.Tuple
	n := 0
	for {
		t, ok, err := it.Next()
		if err != nil {
			it.Close()
			return fmt.Errorf("merging Ord runs: %w", err)
		}
		if !ok {
			break
		}
		if prev != nil && cmp(prev, t) > 0 {
			it.Close()
			return fmt.Errorf("external sort emitted Ord out of order at row %d", n)
		}
		prev = t
		n++
	}
	if err := it.Close(); err != nil {
		return err
	}
	lc.spillRuns += int64(sorter.Spills())
	if n != len(ord) {
		return fmt.Errorf("external sort returned %d rows, want %d", n, len(ord))
	}
	return e.leakCheck(in, gov)
}
