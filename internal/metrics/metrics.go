// Package metrics is the deterministic observability layer of the scheduler:
// monotonic counters, gauges, and fixed-bucket histograms collected in a
// Registry that snapshots to a stable, sorted text/JSON encoding.
//
// Two properties set it apart from a general-purpose metrics library and are
// load-bearing for the rest of the repository:
//
//   - Determinism. Nothing in the package reads the wall clock, and a
//     snapshot iterates instruments in sorted name order, so two identical
//     seeded scheduler sessions produce byte-identical snapshots. Latencies
//     are recorded in sim-time ticks or deterministic work units (slots
//     scanned, frontier points kept) — never nanoseconds — which is what
//     makes snapshots golden-testable (see internal/metasched's determinism
//     suite and DESIGN.md §10).
//
//   - Zero cost when disabled. Every instrument method is safe on a nil
//     receiver and a nil *Registry hands out nil instruments, so hot paths
//     hold pre-resolved instrument pointers and pay a single predictable
//     branch — no allocation, no map lookup, no lock — when observability is
//     off. The contract is pinned by TestDisabledInstrumentsZeroAllocs and
//     the disabled-path benchmarks.
//
// Instruments are safe for concurrent use: all state is atomic, so the
// experiment worker pools can increment shared counters. Totals are order-independent sums, which preserves the
// byte-identical-snapshot guarantee for any worker count.
package metrics

import (
	"fmt"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is ready
// to use; a nil Counter discards every operation at zero cost.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds delta to the counter. Negative deltas are ignored — counters are
// monotone by contract.
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count; 0 for a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-written instantaneous value. The zero value is ready to
// use; a nil Gauge discards every operation at zero cost.
type Gauge struct {
	v atomic.Int64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add shifts the gauge by delta, which may be negative — the natural
// operation for level gauges (queue depths, in-flight counts) maintained by
// paired enter/leave observations.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v when v exceeds the current value — a
// high-water mark usable from concurrent observers.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the gauge's current value; 0 for a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution of int64 observations. Bucket i
// counts observations v with v <= bounds[i] (and v > bounds[i-1]); one
// implicit overflow bucket counts everything beyond the last bound. Bounds
// are fixed at registration, so two identical runs always fill identical
// buckets — there is no adaptive resizing to leak nondeterminism.
//
// A nil Histogram discards every observation at zero cost.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
}

func newHistogram(bounds []int64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: histogram bounds not strictly increasing at %d (%d after %d)",
				i, bounds[i], bounds[i-1])
		}
	}
	own := make([]int64, len(bounds))
	copy(own, bounds)
	return &Histogram{bounds: own, counts: make([]atomic.Int64, len(bounds)+1)}, nil
}

// Observe records one value. The bucket scan is a short linear walk — bucket
// lists are a dozen entries at most — so the enabled path stays
// allocation-free too.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations; 0 for a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values; 0 for a nil histogram.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ExpBuckets returns n strictly increasing bounds starting at start and
// multiplying by factor — the standard shape for scan lengths and latencies
// whose distributions span orders of magnitude. start must be positive,
// factor at least 2, n at least 1.
func ExpBuckets(start int64, factor, n int) []int64 {
	if start <= 0 || factor < 2 || n < 1 {
		panic(fmt.Sprintf("metrics: invalid ExpBuckets(%d, %d, %d)", start, factor, n))
	}
	out := make([]int64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= int64(factor)
	}
	return out
}

// LinearBuckets returns n strictly increasing bounds start, start+width, …
// for distributions with a known narrow range (batch sizes, window counts).
func LinearBuckets(start, width int64, n int) []int64 {
	if width <= 0 || n < 1 {
		panic(fmt.Sprintf("metrics: invalid LinearBuckets(%d, %d, %d)", start, width, n))
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)*width
	}
	return out
}
