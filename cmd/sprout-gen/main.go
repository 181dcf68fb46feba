// Command sprout-gen generates probabilistic TPC-H data and writes every
// table to a page-structured heap file on disk, exercising the
// secondary-storage layer end to end. The resulting files can be scanned
// back with the storage package (see internal/storage).
//
// Usage:
//
//	sprout-gen [-sf 0.01] [-seed 1] [-out ./tpch-data]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "./tpch-data", "output directory")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	t0 := time.Now()
	d := tpch.Generate(tpch.Config{SF: *sf, Seed: *seed})
	fmt.Printf("generated SF=%g in %.1fs\n", *sf, time.Since(t0).Seconds())

	var totalPages, totalTuples int64
	for _, tb := range d.Tables() {
		path := filepath.Join(*out, tb.Name+".heap")
		h, err := storage.CreateHeapFile(path)
		if err != nil {
			fail(err)
		}
		for row := range tb.Rel.All() {
			if err := h.Append(row); err != nil {
				fail(err)
			}
		}
		if err := h.FinishWrites(); err != nil {
			fail(err)
		}
		fmt.Printf("%-8s %9d tuples %7d pages  %s\n", tb.Name, h.NumTuples(), h.NumPages(), path)
		totalPages += h.NumPages()
		totalTuples += h.NumTuples()
		if err := h.Close(); err != nil {
			fail(err)
		}
	}
	fmt.Printf("total: %d tuples, %d pages (%.1f MiB)\n",
		totalTuples, totalPages, float64(totalPages)*storage.PageSize/(1<<20))

	// Persist the ANALYZE sidecar so loaders (tpch.OpenDiskCatalog) skip the
	// first-query statistics pass.
	if err := stats.SaveSidecar(*out, d.Sidecar()); err != nil {
		fail(err)
	}
	fmt.Printf("stats sidecar: %s\n", filepath.Join(*out, stats.SidecarFile))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sprout-gen:", err)
	os.Exit(1)
}
