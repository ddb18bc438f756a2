package trace

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// Registry aggregates named metrics across runs: monotone counters, last-
// value gauges, and power-of-two-bucket histograms. Metrics are keyed by
// name plus free-form "k=v" labels — the recorder labels everything with
// the workload, and per-epoch series additionally with the epoch index —
// so one registry can hold a whole benchmark sweep. A nil *Registry
// disables collection: every method is a no-op. Registries are safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
	}
}

// Label formats one "k=v" label.
func Label(k string, v any) string { return fmt.Sprintf("%s=%v", k, v) }

// metricKey is the canonical series key: name{label1,label2,...}.
func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + strings.Join(labels, ",") + "}"
}

// Add increments a counter.
func (r *Registry) Add(name string, delta int64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[metricKey(name, labels)] += delta
	r.mu.Unlock()
}

// Set records the current value of a gauge.
func (r *Registry) Set(name string, v float64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[metricKey(name, labels)] = v
	r.mu.Unlock()
}

// Observe adds one sample to a histogram. Negative samples clamp to 0.
func (r *Registry) Observe(name string, v int64, labels ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	k := metricKey(name, labels)
	h := r.hists[k]
	if h == nil {
		h = &Histogram{}
		r.hists[k] = h
	}
	h.observe(v)
	r.mu.Unlock()
}

// Histogram buckets samples by bit length: bucket i holds samples v with
// bits.Len64(v) == i, i.e. exponentially wider buckets. Quantiles are
// therefore approximate (bucket upper bound), which is enough to read off
// epoch-duration spread without storing samples.
type Histogram struct {
	Count, Sum int64
	Min, Max   int64
	Buckets    [65]int64
}

func (h *Histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bits.Len64(uint64(v))]++
}

// Quantile returns an upper bound on the q-quantile sample. The edges are
// exact rather than bucket bounds: an empty histogram returns 0, q <= 0
// returns Min, and q >= 1 returns Max (out-of-range q clamps to [0, 1]).
// Interior quantiles return the containing bucket's upper bound, clamped
// into [Min, Max].
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := int64(q * float64(h.Count-1))
	var seen int64
	for i, n := range h.Buckets {
		seen += n
		if seen > rank {
			// Bucket i holds samples with bit length i: upper bound 2^i - 1
			// (bucket 0 holds only zeros).
			ub := int64(1)<<uint(i) - 1
			if ub > h.Max {
				ub = h.Max
			}
			if ub < h.Min {
				ub = h.Min
			}
			return ub
		}
	}
	return h.Max
}

// Mean returns the arithmetic mean of the samples.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// sortedKeys returns the keys of m in sorted order. Both Render and
// WritePrometheus iterate through it, so the two formats share one
// deterministic ordering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Render writes every metric, sorted by kind then key, as aligned text.
// The ordering is deterministic: series are sorted by their full
// name{labels} key within each kind (counters, then gauges, then
// histograms).
func (r *Registry) Render(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range sortedKeys(r.counters) {
		fmt.Fprintf(w, "counter  %-56s %d\n", k, r.counters[k])
	}
	for _, k := range sortedKeys(r.gauges) {
		fmt.Fprintf(w, "gauge    %-56s %g\n", k, r.gauges[k])
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		fmt.Fprintf(w, "hist     %-56s count=%d sum=%d min=%d mean=%.0f p50<=%d p90<=%d max=%d\n",
			k, h.Count, h.Sum, h.Min, h.Mean(), h.Quantile(0.5), h.Quantile(0.9), h.Max)
	}
}
