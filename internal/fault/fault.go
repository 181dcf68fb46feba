// Package fault is the engine's robustness plane: deterministic fault
// injection for the storage layer, a hierarchical memory governor for the
// big allocators, typed panic capture for the worker pool, and a
// deterministic capped-exponential retry policy.
//
// The injection side is schedule-driven and fully seeded. A Plan holds an
// ordered set of Rules ("fail the 3rd write", "every sync on files matching
// 'run' returns ENOSPC, transiently, twice") plus per-op atomic counters;
// Decide consults the counters and returns a Decision — inject an error,
// truncate a write (short write / torn page), or add latency. The same seed
// always produces the same schedule, so a chaos failure reproduces from its
// seed alone.
//
// Injection is threaded through internal/storage behind a process-global
// hook (storage.SetIO) that costs one atomic pointer load when disarmed —
// the fault-free fast path stays allocation- and branch-clean. Errors
// surface as *Injected, which callers classify with IsInjected and
// IsTransient; transient faults are retried inside the storage wrappers
// under the installed IO's Retry policy before ever reaching a query.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"
)

// Op identifies a class of storage operation the fault plane can intercept.
type Op uint8

const (
	OpCreate Op = iota // file creation (heap files, spill runs)
	OpOpen             // opening an existing file
	OpRead             // positional page read
	OpWrite            // positional page write
	OpSync             // fsync / durability barrier
	OpRemove           // file removal
	numOps
)

var opNames = [numOps]string{"create", "open", "read", "write", "sync", "remove"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Kind is the flavour of an injected fault.
type Kind uint8

const (
	KindErr        Kind = iota // generic I/O error
	KindShortWrite             // write persists only a prefix, then errors
	KindTornPage               // write persists a torn prefix of a page
	KindENOSPC                 // device-full
	KindLatency                // no error; the op is delayed
)

var kindNames = [...]string{"io", "short-write", "torn-page", "enospc", "latency"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Injected is the typed error every injected fault surfaces as. Transient
// faults report themselves retryable; IsTransient drives the storage-level
// retry loop.
type Injected struct {
	Op        Op
	Kind      Kind
	Path      string
	Transient bool
}

func (e *Injected) Error() string {
	t := ""
	if e.Transient {
		t = " (transient)"
	}
	return fmt.Sprintf("fault: injected %s fault on %s %q%s", e.Kind, e.Op, e.Path, t)
}

// IsInjected reports whether err wraps an injected fault.
func IsInjected(err error) bool {
	var inj *Injected
	return errors.As(err, &inj)
}

// IsTransient reports whether err wraps a transient injected fault — one
// whose rule has burned out, so retrying the operation will succeed.
func IsTransient(err error) bool {
	var inj *Injected
	return errors.As(err, &inj) && inj.Transient
}

// Rule schedules one fault. The zero Nth matches every occurrence; a
// positive Nth fires on the Nth matching operation (1-based, counted per
// Op across the whole plan). Count bounds how many times the rule fires
// (0 means once); PathSubstr restricts the rule to paths containing the
// substring ("" matches all).
type Rule struct {
	Op         Op
	Kind       Kind
	Nth        int64         // 1-based trigger point; 0 = every matching op
	Count      int64         // max firings; 0 = once
	Transient  bool          // retrying succeeds once the rule burns out
	PathSubstr string        // "" matches every path
	Delay      time.Duration // for KindLatency, or extra latency on any kind
}

// Decision is the outcome of consulting the plan for one operation.
type Decision struct {
	Err   error         // non-nil: the op fails with this error
	Short int           // >= 0 with a write fault: persist only this prefix
	Delay time.Duration // sleep before performing (or failing) the op
}

// Plan is a seeded, deterministic fault schedule. Decide is safe for
// concurrent use; counters are atomic and rules fire in declaration order
// (first match wins).
type Plan struct {
	Seed  int64
	rules []Rule
	// fired is parallel to rules (Rule stays a plain copyable value; its
	// firing counter lives here).
	fired   []atomic.Int64
	counts  [numOps]atomic.Int64
	injured atomic.Int64 // total injected faults
}

// NewPlan builds a plan from an explicit rule schedule.
func NewPlan(seed int64, rules ...Rule) *Plan {
	return &Plan{Seed: seed, rules: rules, fired: make([]atomic.Int64, len(rules))}
}

// RandomPlan derives a randomized but fully deterministic schedule from
// seed: a handful of rules spread over the op space, biased toward
// transient faults (so retry machinery gets exercised) with occasional hard
// faults and short writes. Two calls with equal seeds yield equal plans.
func RandomPlan(seed int64) *Plan {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(4)
	rules := make([]Rule, 0, n)
	for i := 0; i < n; i++ {
		r := Rule{
			Op:        Op(rng.Intn(int(numOps))),
			Nth:       int64(1 + rng.Intn(40)),
			Count:     int64(1 + rng.Intn(2)),
			Transient: rng.Float64() < 0.7,
		}
		switch rng.Intn(5) {
		case 0:
			r.Kind = KindENOSPC
		case 1:
			if r.Op == OpWrite {
				r.Kind = KindShortWrite
			} else {
				r.Kind = KindErr
			}
		case 2:
			r.Kind = KindLatency
			r.Delay = time.Duration(rng.Intn(200)) * time.Microsecond
		default:
			r.Kind = KindErr
		}
		rules = append(rules, r)
	}
	return NewPlan(seed, rules...)
}

// Injected reports how many faults the plan has injected so far.
func (p *Plan) Injected() int64 {
	if p == nil {
		return 0
	}
	return p.injured.Load()
}

// Decide consults the schedule for one operation. size is the payload
// length for writes (used to derive torn-page prefixes deterministically);
// pass 0 for non-write ops.
func (p *Plan) Decide(op Op, path string, size int) Decision {
	if p == nil {
		return Decision{Short: -1}
	}
	n := p.counts[op].Add(1)
	for i := range p.rules {
		r := &p.rules[i]
		if r.Op != op {
			continue
		}
		if r.PathSubstr != "" && !strings.Contains(path, r.PathSubstr) {
			continue
		}
		if r.Nth != 0 && n < r.Nth {
			continue
		}
		max := r.Count
		if max == 0 {
			max = 1
		}
		if p.fired[i].Add(1) > max {
			continue
		}
		if r.Kind == KindLatency {
			return Decision{Short: -1, Delay: r.Delay}
		}
		p.injured.Add(1)
		d := Decision{
			Err:   &Injected{Op: op, Kind: r.Kind, Path: path, Transient: r.Transient},
			Short: -1,
			Delay: r.Delay,
		}
		if op == OpWrite && (r.Kind == KindShortWrite || r.Kind == KindTornPage) {
			// Deterministic torn prefix: derived from the plan seed and the
			// op ordinal, never from the clock.
			if size > 0 {
				d.Short = int(mix(uint64(p.Seed)^uint64(n)) % uint64(size))
			} else {
				d.Short = 0
			}
		}
		return d
	}
	return Decision{Short: -1}
}

// mix is splitmix64's finalizer — the repo's standard cheap bijective
// mixer, reused here for torn-page offsets and retry jitter.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// IO bundles a fault plan with the storage-level retry policy and exposes
// retry accounting. Install with storage.SetIO; a nil *IO disarms the
// plane entirely.
type IO struct {
	Plan  *Plan
	Retry Retry
	// Sleep substitutes for time.Sleep in latency injection and retry
	// backoff; nil means real sleeping. Tests inject a recorder.
	Sleep func(time.Duration)

	retries atomic.Int64
}

// Retries reports how many transient faults the storage wrappers retried.
func (io *IO) Retries() int64 {
	if io == nil {
		return 0
	}
	return io.retries.Load()
}

// CountRetry records one storage-level retry (called by the wrappers).
func (io *IO) CountRetry() { io.retries.Add(1) }

// Pause sleeps for d via the configured Sleep function (real time.Sleep
// when nil). Used by the storage wrappers for injected latency and retry
// backoff.
func (io *IO) Pause(d time.Duration) {
	if d <= 0 {
		return
	}
	if io.Sleep != nil {
		io.Sleep(d)
		return
	}
	time.Sleep(d)
}
