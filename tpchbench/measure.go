package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"
)

// rtSnap is a reading of the runtime counters the benchmark uses.
type rtSnap struct {
	alloc                    uint64  // bytes allocated on the heap, cumulative
	gcCPU, totalCPU, idleCPU float64 // runtime CPU-time classes, seconds
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSnap{alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(), idleCPU: s[3].Value.Float64()}
}

// heapSampler tracks the peak of the Go heap — live objects plus those the
// collector has not swept yet — by reading it every millisecond.
type heapSampler struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
				h.observe(heapObjects())
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// take returns the peak since the last take and starts a new interval.
func (h *heapSampler) take() uint64 {
	h.observe(heapObjects())
	return h.peak.Swap(heapObjects())
}

// stop ends the sampling goroutine and waits for it to exit.
func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank percentile.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func setupMedian(times []setupTimes, f func(setupTimes) float64) float64 {
	xs := make([]float64, len(times))
	for i, t := range times {
		xs[i] = f(t)
	}
	return median(xs)
}

// classMedians returns each class's median latency in milliseconds.
func classMedians(es *execStats) map[string]float64 {
	m := make(map[string]float64, len(es.lat))
	for id, xs := range es.lat {
		m[id] = median(xs)
	}
	return m
}
