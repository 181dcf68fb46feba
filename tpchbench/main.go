// Command tpchbench is the repository's end-to-end benchmark. It runs one
// TPC-H workload per process against the SPROUT engine, through plan.Run
// (the call behind sprout.DB.Run and Engine.Run), with one closed-loop
// client, checks every answer against a reference computed at set-up, and
// prints its metrics as one JSON object on the last line of standard
// output.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash tpchbench/run.sh --workload tpch-exact --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// half and a traced half and reports the per-layer metrics, writing the
// spans as JSON under .bench_build/spans/. --sf overrides the workload's
// scale factor. See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/plan"
	"repro/internal/pool"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload   = flag.String("workload", "", "workload: tpch-exact, tpch-lineage or tpch-disk-spill")
		seed       = flag.Int64("seed", 1, "seed of the generated instance, the query order and the Monte Carlo samplers")
		seconds    = flag.Float64("seconds", 30, "measurement time")
		traceMode  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		sf         = flag.Float64("sf", 0, "TPC-H scale factor (0: the workload's default)")
		setupChild = flag.Bool("setup-child", false, "time one set-up, print it as JSON and exit (used for setup_s)")
	)
	flag.Parse()
	w, err := findWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpchbench:", err)
		return 2
	}
	if *sf <= 0 {
		*sf = w.sf
	}
	if *setupChild {
		if err := childSetup(w, *sf, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "tpchbench: set-up:", err)
			return 1
		}
		return 0
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "tpchbench: --trace must be 0 or 1")
		return 2
	}
	cfg := config{w: w, sf: *sf, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), trace: *traceMode == 1}
	out, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpchbench:", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpchbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

type config struct {
	w      *workload
	sf     float64
	seed   int64
	budget time.Duration
	trace  bool
}

// setupReps is how many set-ups setup_s is the median of: one in the
// measured process, the rest in child processes.
const setupReps = 3

// workdir holds the heap files and spill runs; the spans of --trace 1 go
// to spansDir. Both are relative to the repository root.
const (
	workdir  = ".bench_build/work"
	spansDir = ".bench_build/spans"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childSetup times one set-up in a fresh process and prints it as JSON.
func childSetup(w *workload, sf float64, seed int64) error {
	dir := filepath.Join(workdir, fmt.Sprintf("setup-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	e, st, err := setup(w, sf, seed, dir, nil)
	if err != nil {
		return err
	}
	e.close()
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// childSetups times reps set-ups, each in its own child process, one after
// the other.
func childSetups(cfg config, reps int) ([]setupTimes, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []setupTimes
	for range reps {
		cmd := exec.Command(self, "--setup-child", "--workload", cfg.w.name,
			"--seed", strconv.FormatInt(cfg.seed, 10), "--sf", strconv.FormatFloat(cfg.sf, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		var st setupTimes
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, fmt.Errorf("set-up child output %q: %w", b, err)
		}
		out = append(out, st)
	}
	return out, nil
}

// runner drives the closed loop: one client issuing the workload's classes
// one after the other.
type runner struct {
	e       *env
	classes []*class
	rng     *rand.Rand
	pool    *pool.Pool // worker pool of the traced lineage-tier calls

	attempted, failed int
	firstFailure      string
}

// execStats accumulates what the untraced executions report.
type execStats struct {
	passes    int
	lat       map[string][]float64 // per class, milliseconds
	all       []float64            // pooled, milliseconds
	busy      float64              // seconds inside plan.Run
	correct   int
	answers   int64
	exactAns  int64
	degraded  int
	highWater int64 // summed per-execution governor high-water marks
	denials   int64
	executed  int
	rt0, rt1  rtSnap
	// poolHits and poolMisses are the buffer pool's counters over the run.
	poolHits, poolMisses int64
	heapPeaks            float64 // summed per-execution peak heap, bytes
}

func (r *runner) fail(id string, err error) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf("%s: %v", id, err)
	}
}

// shuffled returns the mix in a fresh seeded order.
func (r *runner) shuffled() []*class {
	order := slices.Clone(r.classes)
	r.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// passes runs whole passes over the mix, pass p on instance p mod
// instances, until the budget is spent. It stops only after whole rounds
// (one pass per instance) and at least minPasses passes; a new round starts
// only when it is predicted to end within the budget.
func (r *runner) passes(budget time.Duration, minPasses int, body func(in *instance, c *class)) int {
	start := time.Now()
	k := len(r.e.insts)
	for n := 1; ; n++ {
		in := r.e.insts[(n-1)%k]
		for _, c := range r.shuffled() {
			body(in, c)
		}
		if n%k != 0 || n < minPasses {
			continue
		}
		rounds := n / k
		el := time.Since(start)
		if el+el/time.Duration(rounds) > budget {
			return n
		}
	}
}

// poolStats sums the buffer-pool counters of the disk instances.
func (r *runner) poolStats() (hits, misses int64) {
	for _, in := range r.e.insts {
		if in.pool != nil {
			h, m := in.pool.Stats()
			hits, misses = hits+h, misses+m
		}
	}
	return hits, misses
}

// untraced runs the mix through plan.Run and checks every answer.
func (r *runner) untraced(budget time.Duration, minPasses int) *execStats {
	es := &execStats{lat: make(map[string][]float64)}
	hits0, misses0 := r.poolStats()
	hs := startHeapSampler()
	defer hs.stop()
	es.rt0 = readRuntime()
	es.passes = r.passes(budget, minPasses, func(in *instance, c *class) {
		spec, gov := r.e.spec(c.style)
		r.attempted++
		es.executed++
		hs.take()
		t0 := time.Now()
		res, err := plan.Run(in.catalog, c.q, c.sigma, spec)
		d := time.Since(t0).Seconds()
		es.heapPeaks += float64(hs.take())
		es.busy += d
		es.lat[c.id] = append(es.lat[c.id], d*1e3)
		es.all = append(es.all, d*1e3)
		if gov != nil {
			es.highWater += gov.HighWater()
			es.denials += gov.Denials()
		}
		if err == nil {
			err = r.e.leakCheck(in, gov)
		}
		if err == nil {
			err = in.refs[c.refKey()].check(c.q, fromStats(res.Rows, &res.Stats, spec.MC.Delta))
		}
		if err != nil {
			r.fail(c.id, err)
			return
		}
		es.correct++
		n := int64(res.Rows.Len())
		es.answers += n
		if !res.Stats.Approximate {
			es.exactAns += n
		}
		if res.Stats.Degraded {
			es.degraded++
		}
	})
	es.rt1 = readRuntime()
	hits, misses := r.poolStats()
	es.poolHits, es.poolMisses = hits-hits0, misses-misses0
	return es
}

// traceStats is what the traced half produced.
type traceStats struct {
	passes int
	tr     *tracer
	lc     layerCounts
}

// traced runs the mix as timed layer calls (tracedExec), checking every
// answer; the disk workload adds a storage probe per pass.
func (r *runner) traced(budget time.Duration, tr *tracer) *traceStats {
	ts := &traceStats{tr: tr}
	ts.passes = r.passes(budget, 1, func(in *instance, c *class) {
		r.attempted++
		a, err := r.tracedExec(in, c, tr, &ts.lc)
		if err == nil {
			err = in.refs[c.refKey()].check(c.q, a)
		}
		if err != nil {
			r.fail(c.id, err)
		}
	})
	if r.e.w.disk {
		for range ts.passes {
			r.attempted++
			if err := r.storageProbe(tr, &ts.lc); err != nil {
				r.fail("storage-probe", err)
			}
		}
	}
	return ts
}

func bench(cfg config) (*result, error) {
	classes, err := cfg.w.mix()
	if err != nil {
		return nil, err
	}
	// Set-up: the extra timings run first, in child processes, so that this
	// process's peak RSS covers one instance only.
	times, err := childSetups(cfg, setupReps-1)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	dir := filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	e, st, err := setup(cfg.w, cfg.sf, cfg.seed, dir, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	times = append(times, st)
	if err := e.buildReferences(classes); err != nil {
		return nil, err
	}

	r := &runner{e: e, classes: classes, rng: rand.New(rand.NewSource(cfg.seed)), pool: pool.New(e.workers)}
	res := &result{Metrics: make(map[string]metric)}
	if !cfg.trace {
		es := r.untraced(cfg.budget, 2)
		endToEnd(res.Metrics, times, es)
		report(cfg, r, es, nil)
	} else {
		es := r.untraced(cfg.budget/2, 1)
		ts := r.traced(cfg.budget/2, tr)
		summary := perLayer(res.Metrics, times, es, ts, classes)
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", cfg.w.name, cfg.seed))
		if err := tr.write(path, summary); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "tpchbench: %d spans written to %s\n", len(tr.spans), path)
		report(cfg, r, es, ts)
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	return res, nil
}

// report prints a human-readable summary to standard error.
func report(cfg config, r *runner, es *execStats, ts *traceStats) {
	fmt.Fprintf(os.Stderr, "tpchbench: %s seed %d SF %g: %d classes, %d untraced passes (%d executions)",
		cfg.w.name, cfg.seed, cfg.sf, len(r.classes), es.passes, es.executed)
	if ts != nil {
		fmt.Fprintf(os.Stderr, ", %d traced passes", ts.passes)
	}
	fmt.Fprintf(os.Stderr, "; %d of %d attempted executions failed\n", r.failed, r.attempted)
	if r.firstFailure != "" {
		fmt.Fprintln(os.Stderr, "tpchbench: first failure:", r.firstFailure)
	}
}

// endToEnd fills the metrics a user of the system sees.
func endToEnd(m map[string]metric, times []setupTimes, es *execStats) {
	var meds []float64
	for _, v := range classMedians(es) {
		meds = append(meds, v)
	}
	m["setup_s"] = metric{setupMedian(times, setupTimes.total), "s"}
	m["queries_per_s"] = metric{ratio(float64(es.correct), es.busy), "1/s"}
	m["latency_geomean_ms"] = metric{geomean(meds), "ms"}
	m["latency_p90_ms"] = metric{percentile(es.all, 0.9), "ms"}
	m["alloc_mb_per_query"] = metric{ratio(float64(es.rt1.alloc-es.rt0.alloc)/1e6, float64(es.executed)), "MB"}
	m["heap_peak_mb"] = metric{ratio(es.heapPeaks/1e6, float64(es.executed)), "MB"}
	m["success_rate"] = metric{ratio(float64(es.correct), float64(es.executed)), "ratio"}
	m["exact_answer_frac"] = metric{ratio(float64(es.exactAns), float64(es.answers)), "ratio"}
}

// autoRegret is the geometric mean, over the queries with an auto class,
// of the auto class's median latency over the best fixed style's median.
func autoRegret(es *execStats, classes []*class) float64 {
	meds := classMedians(es)
	var ratios []float64
	for _, q := range queryNames(classes) {
		auto, best := 0.0, math.Inf(1)
		for _, c := range classes {
			if c.query != q {
				continue
			}
			if c.style == plan.Auto {
				auto = meds[c.id]
			} else {
				best = min(best, meds[c.id])
			}
		}
		if auto > 0 && best > 0 && !math.IsInf(best, 1) {
			ratios = append(ratios, auto/best)
		}
	}
	return geomean(ratios)
}

// perLayer fills the per-layer metrics and returns the numerators and
// denominators behind every ratio, which the span file records.
func perLayer(m map[string]metric, times []setupTimes, es *execStats, ts *traceStats, classes []*class) map[string]any {
	self, calls := ts.tr.selfTimes()
	passes := float64(ts.passes)
	perPass := func(name string) float64 { return self[name] / passes }
	lc := &ts.lc
	s := func(name string, v float64) { m[name] = metric{v, "s"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	frac := func(name string, v float64) { m[name] = metric{v, "ratio"} }
	mb := func(name string, v float64) { m[name] = metric{v / 1e6, "MB"} }
	rate := func(name string, v float64) { m[name] = metric{v, "1/s"} }

	s("tpch.generate_s", setupMedian(times, func(t setupTimes) float64 { return t.Generate }))
	s("stats.analyze_s", setupMedian(times, func(t setupTimes) float64 { return t.Analyze }))
	s("storage.write_s", setupMedian(times, func(t setupTimes) float64 { return t.Write }))

	m["plan.prepare_ms"] = metric{ratio(self["plan.prepare"]*1e3, float64(calls["plan.prepare"])), "ms"}
	frac("plan.auto_regret", autoRegret(es, classes))
	s("plan.run_s", perPass("plan.run"))

	s("engine.answer_s", perPass("engine.answer"))
	count("engine.answer_rows", float64(lc.answerRows)/passes)
	rate("engine.rows_per_s", ratio(float64(lc.answerRows), self["engine.answer"]))
	mb("engine.alloc_mb", float64(lc.answerAlloc)/passes)

	s("conf.sortscan_s", perPass("conf.sortscan"))
	count("conf.scans", float64(lc.scans)/passes)
	s("conf.lineage_s", perPass("conf.lineage"))
	count("conf.lineage_clauses", float64(lc.clauses)/passes)

	for _, tier := range []struct {
		name, work string
		tc         *tierCounts
	}{{"obdd", "nodes", &lc.obdd}, {"dtree", "steps", &lc.dtree}} {
		s(tier.name+".compile_s", perPass(tier.name+".compile"))
		count(tier.name+"."+tier.work, float64(tier.tc.work)/passes)
		frac(tier.name+".memo_hit_rate", ratio(float64(tier.tc.memoHits), float64(tier.tc.probes)))
		frac(tier.name+".exact_frac", ratio(float64(tier.tc.exact), float64(tier.tc.answers)))
		mb(tier.name+".alloc_mb", float64(tier.tc.alloc)/passes)
	}

	s("prob.sample_s", perPass("prob.sample"))
	count("prob.samples", float64(lc.samples)/passes)
	rate("prob.samples_per_s", ratio(float64(lc.samples), self["prob.sample"]))

	hits, misses := es.poolHits, es.poolMisses
	s("storage.scan_s", perPass("storage.scan"))
	count("storage.pages_read", float64(misses)/float64(es.passes))
	frac("storage.pool_hit_rate", ratio(float64(hits), float64(hits+misses)))
	s("storage.sort_s", perPass("storage.sort"))
	count("storage.spill_runs", float64(lc.spillRuns)/passes)

	mb("fault.mem_high_water_mb", ratio(float64(es.highWater), float64(es.executed)))
	count("fault.denials", float64(es.denials)/float64(es.passes))
	frac("fault.degraded_frac", ratio(float64(es.degraded), float64(es.executed)))

	gcCPU := es.rt1.gcCPU - es.rt0.gcCPU
	usedCPU := (es.rt1.totalCPU - es.rt0.totalCPU) - (es.rt1.idleCPU - es.rt0.idleCPU)
	frac("runtime.gc_cpu_frac", ratio(gcCPU, usedCPU))

	tracedPerPass := ts.tr.layerTotal() / passes
	untracedPerPass := es.busy / float64(es.passes)
	frac("trace.overhead_frac", ratio(tracedPerPass, untracedPerPass)-1)

	return map[string]any{
		"traced_passes":   ts.passes,
		"untraced_passes": es.passes,
		"span_self_s":     self,
		"span_calls":      calls,
		"bases": map[string][2]float64{
			"obdd.memo_hit_rate":    {float64(lc.obdd.memoHits), float64(lc.obdd.probes)},
			"obdd.exact_frac":       {float64(lc.obdd.exact), float64(lc.obdd.answers)},
			"dtree.memo_hit_rate":   {float64(lc.dtree.memoHits), float64(lc.dtree.probes)},
			"dtree.exact_frac":      {float64(lc.dtree.exact), float64(lc.dtree.answers)},
			"storage.pool_hit_rate": {float64(hits), float64(hits + misses)},
			"fault.degraded_frac":   {float64(es.degraded), float64(es.executed)},
			"runtime.gc_cpu_frac":   {gcCPU, usedCPU},
			"trace.overhead_frac":   {tracedPerPass, untracedPerPass},
			"engine.rows_per_s":     {float64(lc.answerRows), self["engine.answer"]},
			"prob.samples_per_s":    {float64(lc.samples), self["prob.sample"]},
		},
	}
}
