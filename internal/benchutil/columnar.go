package benchutil

import (
	"fmt"
	"os"
	"time"

	"repro/internal/plan"
	"repro/internal/tpch"
)

// ColumnarRow is one (query, execution tier) measurement of the vectorized
// execution experiment: the same plan run through the row engine and through
// the columnar tier, over disk-resident heap files.
type ColumnarRow struct {
	Query string
	Exec  string // "row" or "columnar"
	Wall  time.Duration
	Tuple time.Duration
	Prob  time.Duration
	// Answers is the number of distinct answer tuples.
	Answers int64
	// Speedup is the row tier's tuple-phase time over this row's (reported
	// on the columnar rows; 1.0 on the row rows).
	Speedup float64
	// Identical reports that every confidence is bit-identical to the row
	// run of the same query — the columnar tier's correctness promise.
	Identical bool
}

// Columnar measures the vectorized execution tier against the row engine on
// scan-heavy catalog queries, end to end through secondary storage: the
// generated instance is persisted as heap files (plus the statistics
// sidecar), opened as a disk-resident catalog whose scans page tuples
// through a bounded buffer pool, and each query runs once on the row engine
// (Spec.RowExec) and once through the columnar tier. Confidences must be
// bit-identical across the tiers; only the wall-clock may differ. queries
// defaults to scan-dominated entries when nil.
func Columnar(d *tpch.Data, queries []string, poolPages, reps int) ([]ColumnarRow, error) {
	if len(queries) == 0 {
		queries = []string{"1", "B6", "15"}
	}
	if reps < 1 {
		reps = 1
	}
	dir, err := os.MkdirTemp("", "sprout-columnar-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := d.WriteHeapFiles(dir); err != nil {
		return nil, fmt.Errorf("benchutil: columnar: writing heap files: %w", err)
	}
	catalog, _, closeFiles, err := tpch.OpenDiskCatalog(dir, poolPages)
	if err != nil {
		return nil, fmt.Errorf("benchutil: columnar: opening disk catalog: %w", err)
	}
	defer closeFiles()

	cat := tpch.Catalog()
	var rows []ColumnarRow
	for _, name := range queries {
		e, ok := cat[name]
		if !ok || e.Q == nil {
			return nil, fmt.Errorf("benchutil: columnar: unknown or unsupported catalog query %q", name)
		}
		sigma := tpch.FDsFor(e)
		rowRes, rowWall, err := timedRun(catalog, e.Q, sigma, plan.Spec{Style: plan.Lazy, RowExec: true}, reps)
		if err != nil {
			return nil, fmt.Errorf("benchutil: columnar %s row: %w", name, err)
		}
		colRes, colWall, err := timedRun(catalog, e.Q, sigma, plan.Spec{Style: plan.Lazy}, reps)
		if err != nil {
			return nil, fmt.Errorf("benchutil: columnar %s columnar: %w", name, err)
		}
		same, err := sameConfidences(rowRes, colRes)
		if err != nil {
			return nil, fmt.Errorf("benchutil: columnar %s: %w", name, err)
		}
		rows = append(rows, ColumnarRow{
			Query: name, Exec: "row",
			Wall: rowWall, Tuple: rowRes.Stats.TupleTime, Prob: rowRes.Stats.ProbTime,
			Answers: rowRes.Stats.DistinctTuples, Speedup: 1, Identical: true,
		})
		speedup := 0.0
		if colRes.Stats.TupleTime > 0 {
			speedup = float64(rowRes.Stats.TupleTime) / float64(colRes.Stats.TupleTime)
		}
		rows = append(rows, ColumnarRow{
			Query: name, Exec: "columnar",
			Wall: colWall, Tuple: colRes.Stats.TupleTime, Prob: colRes.Stats.ProbTime,
			Answers: colRes.Stats.DistinctTuples, Speedup: speedup, Identical: same,
		})
	}
	return rows, nil
}
