package trace

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
)

// promNamespace prefixes every exported Prometheus metric name.
const promNamespace = "doubleplay"

// promSeries is one registry key decomposed for the text format.
type promSeries struct {
	key    string // original registry key, for value lookup
	labels string // rendered {k="v",...} suffix, "" when unlabeled
}

// promName sanitizes a dotted internal metric name into a legal Prometheus
// metric name under the doubleplay namespace: "record.cow_pages" becomes
// "doubleplay_record_cow_pages".
func promName(name string) string {
	var b strings.Builder
	b.WriteString(promNamespace)
	b.WriteByte('_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabelName sanitizes a label key.
func promLabelName(k string) string {
	var b strings.Builder
	for i := 0; i < len(k); i++ {
		c := k[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promSplit decomposes a registry key "name{k=v,k=v}" into the sanitized
// metric name and rendered label suffix.
func promSplit(key string) (name, labels string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return promName(key), ""
	}
	name = promName(key[:i])
	inner := strings.TrimSuffix(key[i+1:], "}")
	parts := strings.Split(inner, ",")
	rendered := make([]string, 0, len(parts))
	for _, p := range parts {
		if p == "" {
			continue
		}
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			k, v = p, ""
		}
		rendered = append(rendered, fmt.Sprintf(`%s="%s"`, promLabelName(k), promEscape(v)))
	}
	if len(rendered) == 0 {
		return name, ""
	}
	return name, "{" + strings.Join(rendered, ",") + "}"
}

// groupSeries buckets sorted registry keys by sanitized metric name,
// preserving the shared sorted-key order within each name and returning
// the names sorted.
func groupSeries(keys []string) (names []string, byName map[string][]promSeries) {
	byName = make(map[string][]promSeries)
	for _, k := range keys {
		name, labels := promSplit(k)
		if _, seen := byName[name]; !seen {
			names = append(names, name)
		}
		byName[name] = append(byName[name], promSeries{key: k, labels: labels})
	}
	sort.Strings(names)
	return names, byName
}

// labelJoin merges a series' label suffix with one extra label (used for
// histogram le labels).
func labelJoin(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4). Counters and gauges export directly; histograms
// export cumulative _bucket series with power-of-two le bounds plus _sum
// and _count. Output ordering is deterministic and shares Render's sorted
// ordering: kinds in counter/gauge/histogram order, metric names sorted,
// and series within a name sorted by their full registry key.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	// A metric name may only carry one type. Internal names are unique per
	// kind by convention; if a name is nonetheless reused across kinds, the
	// later kind gets a disambiguating suffix so the output always parses.
	used := make(map[string]bool)
	claim := func(name, suffix string) string {
		if used[name] {
			name += suffix
		}
		used[name] = true
		return name
	}

	names, byName := groupSeries(sortedKeys(r.counters))
	for _, name := range names {
		out := claim(name, "_counter")
		pf("# TYPE %s counter\n", out)
		for _, s := range byName[name] {
			pf("%s%s %d\n", out, s.labels, r.counters[s.key])
		}
	}

	names, byName = groupSeries(sortedKeys(r.gauges))
	for _, name := range names {
		out := claim(name, "_gauge")
		pf("# TYPE %s gauge\n", out)
		for _, s := range byName[name] {
			pf("%s%s %g\n", out, s.labels, r.gauges[s.key])
		}
	}

	names, byName = groupSeries(sortedKeys(r.hists))
	for _, name := range names {
		out := claim(name, "_histogram")
		pf("# TYPE %s histogram\n", out)
		for _, s := range byName[name] {
			h := r.hists[s.key]
			top := bits.Len64(uint64(h.Max))
			var cum int64
			for i := 0; i <= top && i < len(h.Buckets); i++ {
				cum += h.Buckets[i]
				ub := int64(1)<<uint(i) - 1
				pf("%s_bucket%s %d\n", out, labelJoin(s.labels, fmt.Sprintf("le=%q", fmt.Sprint(ub))), cum)
			}
			pf("%s_bucket%s %d\n", out, labelJoin(s.labels, `le="+Inf"`), h.Count)
			pf("%s_sum%s %d\n", out, s.labels, h.Sum)
			pf("%s_count%s %d\n", out, s.labels, h.Count)
		}
	}
	return err
}
