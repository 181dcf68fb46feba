package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/benchutil"
	"repro/internal/fault"
	"repro/internal/fd"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// The three workloads. Each stresses a different part of the stack; see
// README.md for the rationale and the layer each one is judged on.
const (
	wExact   = "tpch-exact"
	wLineage = "tpch-lineage"
	wDisk    = "tpch-disk-spill"
)

// poolPages is the buffer pool of tpch-disk-spill: 1024 pages (8 MiB),
// smaller than Item's heap file (about 2550 pages at SF 0.05).
const poolPages = 1024

// memBudget is the per-query working-memory budget of tpch-disk-spill.
const memBudget = 2 << 20

// workload describes one benchmark workload: its default scale factor, the
// engine worker count, whether the catalog is disk-resident, and its mix of
// (query, plan style) classes.
type workload struct {
	name    string
	sf      float64
	workers int
	disk    bool
	// instances is how many TPC-H instances the workload generates; each
	// pass over the mix runs on the next one.
	instances int
	mix       func() ([]*class, error)
}

func workloads() []*workload {
	return []*workload{
		{name: wExact, sf: 0.05, workers: 1, instances: 1, mix: func() ([]*class, error) {
			return hierMix(plan.Lazy, plan.Eager, plan.Hybrid, plan.Auto)
		}},
		// Lineage sizes at SF 0.005 vary a lot between instances: q1's
		// d-tree peak heap is 0.2 GB on some and 0.6 GB on others. A run
		// spreads its passes over twelve instances, so that its figures
		// depend on the code more than on the seed.
		{name: wLineage, sf: 0.005, workers: 2, instances: 12, mix: lineageMix},
		{name: wDisk, sf: 0.05, workers: 1, instances: 1, disk: true, mix: func() ([]*class, error) {
			return hierMix(plan.Lazy, plan.Eager)
		}},
	}
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// class is one (query, plan style) pair of a workload's mix. Latency is
// summarized per class: each class is timed by its own median.
type class struct {
	id    string // "<query>/<style>"
	query string
	q     *query.Query
	sigma *fd.Set
	style plan.Style
	// refStyle computes the class's reference answer at set-up: lazy for
	// hierarchical queries, d-tree for unsafe ones.
	refStyle plan.Style
}

// refKey names the class's reference answer.
func (c *class) refKey() string { return c.query + "/" + c.refStyle.String() }

func newClass(name string, q *query.Query, sigma *fd.Set, style, refStyle plan.Style) *class {
	return &class{id: name + "/" + style.String(), query: name, q: q, sigma: sigma, style: style, refStyle: refStyle}
}

// hierMix pairs every catalog query with a hierarchical FD signature
// (tpch.Classify().HierWithFDs) with each of the given styles.
func hierMix(styles ...plan.Style) ([]*class, error) {
	cat := tpch.Catalog()
	var out []*class
	for _, cl := range tpch.Classify() {
		if !cl.HierWithFDs {
			continue
		}
		e := cat[cl.Name]
		for _, st := range styles {
			out = append(out, newClass(cl.Name, e.Q, tpch.FDsFor(e), st, plan.Lazy))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no hierarchical catalog queries")
	}
	return out, nil
}

// lineageMix is the mix the lineage tiers are judged on: the unsafe
// queries under every tier that accepts them, and the large-lineage
// hierarchical queries under the lineage tiers only. B1 is left out: its
// single 11.6k-clause lineage exhausts memory under OBDD and d-tree.
func lineageMix() ([]*class, error) {
	cat := tpch.Catalog()
	var out []*class
	unsafe := benchutil.UnsafeQuery()
	for _, st := range []plan.Style{plan.Auto, plan.OBDD, plan.DTree, plan.MonteCarlo} {
		out = append(out, newClass("unsafe", unsafe, fd.NewSet(), st, plan.DTree))
	}
	for _, name := range []string{"5", "8", "9"} {
		e := cat[name]
		for _, st := range []plan.Style{plan.Auto, plan.OBDD, plan.DTree, plan.MonteCarlo} {
			out = append(out, newClass(name, e.Q, tpch.FDsFor(e), st, plan.DTree))
		}
	}
	for _, name := range []string{"1", "3", "4", "12", "21", "B3"} {
		e := cat[name]
		for _, st := range []plan.Style{plan.OBDD, plan.DTree, plan.MonteCarlo} {
			out = append(out, newClass(name, e.Q, tpch.FDsFor(e), st, plan.Lazy))
		}
	}
	return out, nil
}

// setupTimes is one set-up of a workload, split by layer and summed over
// its instances.
type setupTimes struct {
	Generate float64 `json:"generate_s"` // tpch.Generate
	Analyze  float64 `json:"analyze_s"`  // Catalog.Analyze
	Write    float64 `json:"write_s"`    // heap files + sidecar written, catalog reopened (disk only)
}

func (s setupTimes) total() float64 { return s.Generate + s.Analyze + s.Write }

// instance is one generated TPC-H instance and the catalog serving it.
type instance struct {
	catalog *plan.Catalog
	// mem is the in-memory catalog of the same data; references are
	// computed on it. It is the serving catalog for in-memory workloads.
	mem  *plan.Catalog
	pool *storage.BufferPool // disk only
	refs map[string]*reference
}

// env is a set-up workload: its instances and, for the disk workload, its
// storage handles.
type env struct {
	w        *workload
	insts    []*instance
	spillDir string // disk only: where sorts and grace joins spill
	closers  []func() error
	workers  int
	seed     int64
}

func (e *env) close() {
	for _, c := range e.closers {
		c()
	}
}

// setup generates the workload's instances — instance k from seed
// seed·instances+k, so runs with different seeds share no data — and builds
// the catalogs the workload serves. dir is a scratch directory the set-up
// owns (heap files live there). tr, when set, records a span per set-up
// layer.
func setup(w *workload, sf float64, seed int64, dir string, tr *tracer) (*env, setupTimes, error) {
	e := &env{w: w, workers: w.workers, seed: seed}
	var st setupTimes
	for k := range w.instances {
		in, err := e.setupInstance(sf, seed*int64(w.instances)+int64(k), filepath.Join(dir, strconv.Itoa(k)), tr, &st)
		if err != nil {
			e.close()
			return nil, st, err
		}
		e.insts = append(e.insts, in)
	}
	return e, st, nil
}

func (e *env) setupInstance(sf float64, seed int64, dir string, tr *tracer, st *setupTimes) (*instance, error) {
	t0 := time.Now()
	s := tr.begin("tpch.generate", "setup", -1)
	d := tpch.Generate(tpch.Config{SF: sf, Seed: seed})
	tr.end(s)
	st.Generate += time.Since(t0).Seconds()

	t0 = time.Now()
	s = tr.begin("stats.analyze", "setup", -1)
	mem := d.Catalog()
	mem.Analyze()
	tr.end(s)
	st.Analyze += time.Since(t0).Seconds()

	in := &instance{catalog: mem, mem: mem}
	if !e.w.disk {
		return in, nil
	}
	heapDir := filepath.Join(dir, "heap")
	e.spillDir = filepath.Join(dir, "spill")
	for _, p := range []string{heapDir, e.spillDir} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	s = tr.begin("storage.write", "setup", -1)
	defer tr.end(s)
	if err := d.WriteHeapFiles(heapDir); err != nil {
		return nil, fmt.Errorf("writing heap files: %w", err)
	}
	c, _, closer, err := tpch.OpenDiskCatalog(heapDir, poolPages)
	if err != nil {
		return nil, fmt.Errorf("opening disk catalog: %w", err)
	}
	st.Write += time.Since(t0).Seconds()
	e.closers = append(e.closers, closer)
	in.catalog, in.pool = c, c.Disk("Item").Pool
	return in, nil
}

// spec is the plan spec every execution of the workload runs under. The
// disk workload gets a fresh governor per execution: each query runs under
// its own 2 MiB budget, and the governor's books must balance afterwards.
func (e *env) spec(style plan.Style) (plan.Spec, *fault.Governor) {
	s := plan.Spec{Style: style, Workers: e.workers}
	s.MC.Seed, s.MC.Epsilon, s.MC.Delta = e.seed, prob.DefaultEpsilon, prob.DefaultDelta
	if !e.w.disk {
		return s, nil
	}
	gov := fault.NewGovernor(memBudget, nil)
	s.Mem = gov
	s.Conf.TmpDir = e.spillDir
	return s, gov
}

// leakCheck verifies the disk workload's resources are quiescent after an
// execution: no spill file left behind, no pinned buffer-pool frame, and
// every governed reservation released.
func (e *env) leakCheck(in *instance, gov *fault.Governor) error {
	if !e.w.disk {
		return nil
	}
	ents, err := os.ReadDir(e.spillDir)
	if err != nil {
		return err
	}
	if len(ents) > 0 {
		return fmt.Errorf("%d spill files left behind (first %s)", len(ents), ents[0].Name())
	}
	if n := in.pool.Pinned(); n != 0 {
		return fmt.Errorf("%d buffer-pool frames still pinned", n)
	}
	if u := gov.Used(); u != 0 {
		return fmt.Errorf("%d governed bytes never released", u)
	}
	return nil
}

// buildReferences computes, on each instance's in-memory catalog, the
// reference answer of every (query, reference style) of the mix.
func (e *env) buildReferences(classes []*class) error {
	for _, in := range e.insts {
		in.refs = make(map[string]*reference)
		for _, c := range classes {
			key := c.refKey()
			if in.refs[key] != nil {
				continue
			}
			spec := plan.Spec{Style: c.refStyle, Workers: e.workers, RequireExact: true}
			res, err := plan.Run(in.mem, c.q, c.sigma, spec)
			if err != nil {
				return fmt.Errorf("reference %s: %w", key, err)
			}
			if res.Stats.Approximate {
				return fmt.Errorf("reference %s is not exact", key)
			}
			if in.refs[key], err = newReference(c.q, res.Rows); err != nil {
				return fmt.Errorf("reference %s: %w", key, err)
			}
		}
		if e.w.disk {
			// References came from the in-memory copy; drop it so the
			// measured process holds only the disk catalog.
			in.mem = nil
		}
	}
	return nil
}

// queryNames lists the distinct queries of a mix, sorted.
func queryNames(classes []*class) []string {
	var names []string
	for _, c := range classes {
		if !slices.Contains(names, c.query) {
			names = append(names, c.query)
		}
	}
	slices.Sort(names)
	return names
}
