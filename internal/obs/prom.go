package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// promBounds is the number of finite `le` boundaries in the exposition:
// powers of two from 2^0 through 2^30 microseconds (~17.9 minutes), after
// which samples fall into +Inf. Each internal bucket is attributed to the
// smallest boundary >= its upper bound, so coarsening is conservative:
// cumulative counts at a boundary may omit samples sitting exactly on it,
// which means quantiles read from the exposition err high, never low —
// the same direction as Histogram.Quantile.
const promBounds = 31

// AppendPrometheus appends the Prometheus text exposition (version 0.0.4)
// of every registered instrument to dst and returns the extended slice.
// Families render in sorted name order so output is deterministic for a
// fixed set of values. Histograms coarsen to power-of-two `le` boundaries;
// counters and gauges render as single samples.
func (r *Registry) AppendPrometheus(dst []byte) []byte {
	counters, gauges := r.scalarSnapshot()
	for _, c := range counters {
		dst = append(dst, "# TYPE "...)
		dst = append(dst, c.name...)
		dst = append(dst, " counter\n"...)
		dst = append(dst, c.name...)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, c.u, 10)
		dst = append(dst, '\n')
	}
	for _, g := range gauges {
		dst = append(dst, "# TYPE "...)
		dst = append(dst, g.name...)
		dst = append(dst, " gauge\n"...)
		dst = append(dst, g.name...)
		dst = append(dst, ' ')
		dst = strconv.AppendFloat(dst, g.f, 'g', -1, 64)
		dst = append(dst, '\n')
	}
	names, hists := r.histSnapshot()
	for i, name := range names {
		dst = appendPromHistogram(dst, name, hists[i])
	}
	return dst
}

// appendPromHistogram renders one histogram family: cumulative _bucket
// lines at power-of-two boundaries plus _sum and _count. The +Inf bucket
// and _count are both derived from the same bucket traversal so the family
// is internally consistent even under concurrent recording.
func appendPromHistogram(dst []byte, name string, h *Histogram) []byte {
	var coarse [promBounds + 1]uint64 // last slot is +Inf
	var total uint64
	srcs := h.sources(new([1]*Histogram))
	for i, top := 0, h.top(); i <= top; i++ {
		n := bucketSum(srcs, i)
		if n == 0 {
			continue
		}
		total += n
		upper := bucketUpper(i)
		slot := promBounds
		for k := 0; k < promBounds; k++ {
			if upper <= int64(1)<<uint(k) {
				slot = k
				break
			}
		}
		coarse[slot] += n
	}
	dst = append(dst, "# TYPE "...)
	dst = append(dst, name...)
	dst = append(dst, " histogram\n"...)
	var cum uint64
	for k := 0; k < promBounds; k++ {
		cum += coarse[k]
		dst = append(dst, name...)
		dst = append(dst, `_bucket{le="`...)
		dst = strconv.AppendUint(dst, 1<<uint(k), 10)
		dst = append(dst, `"} `...)
		dst = strconv.AppendUint(dst, cum, 10)
		dst = append(dst, '\n')
	}
	dst = append(dst, name...)
	dst = append(dst, `_bucket{le="+Inf"} `...)
	dst = strconv.AppendUint(dst, total, 10)
	dst = append(dst, '\n')
	dst = append(dst, name...)
	dst = append(dst, "_sum "...)
	dst = strconv.AppendInt(dst, h.Sum(), 10)
	dst = append(dst, '\n')
	dst = append(dst, name...)
	dst = append(dst, "_count "...)
	dst = strconv.AppendUint(dst, total, 10)
	dst = append(dst, '\n')
	return dst
}

// PromSample is one parsed sample line of a Prometheus exposition.
type PromSample struct {
	// Name is the full sample name including any _bucket/_sum/_count suffix.
	Name string
	// Le is the value of the `le` label for histogram bucket samples,
	// empty otherwise.
	Le string
	// Value is the sample value.
	Value float64
}

// PromFamily is one parsed metric family: its declared TYPE and its samples
// in file order.
type PromFamily struct {
	// Type is the declared metric type: "counter", "gauge" or "histogram".
	Type string
	// Samples holds the family's sample lines in exposition order.
	Samples []PromSample
}

// ParsePrometheus parses a Prometheus text exposition (the subset this
// package emits: TYPE comments, optional single `le` label, float values)
// into families keyed by base metric name. Histogram _bucket/_sum/_count
// samples attach to their base family. It exists so tests can round-trip
// the exposition instead of string-matching it.
func ParsePrometheus(data []byte) (map[string]*PromFamily, error) {
	fams := make(map[string]*PromFamily)
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "TYPE" {
				fams[fields[2]] = &PromFamily{Type: fields[3]}
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prom parse: line %d: no value separator in %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom parse: line %d: bad value: %v", ln+1, err)
		}
		nameAndLabels := line[:sp]
		var s PromSample
		if br := strings.IndexByte(nameAndLabels, '{'); br >= 0 {
			s.Name = nameAndLabels[:br]
			labels := nameAndLabels[br:]
			if !strings.HasSuffix(labels, "}") {
				return nil, fmt.Errorf("prom parse: line %d: unterminated labels in %q", ln+1, line)
			}
			inner := labels[1 : len(labels)-1]
			const lePrefix = `le="`
			if !strings.HasPrefix(inner, lePrefix) || !strings.HasSuffix(inner, `"`) {
				return nil, fmt.Errorf("prom parse: line %d: unsupported labels %q", ln+1, inner)
			}
			s.Le = inner[len(lePrefix) : len(inner)-1]
		} else {
			s.Name = nameAndLabels
		}
		s.Value = val
		fam := fams[familyName(fams, s.Name)]
		if fam == nil {
			return nil, fmt.Errorf("prom parse: line %d: sample %q has no TYPE declaration", ln+1, s.Name)
		}
		fam.Samples = append(fam.Samples, s)
	}
	return fams, nil
}

// familyName resolves a sample name to its declared family, stripping
// histogram suffixes when the base name is a registered histogram family.
func familyName(fams map[string]*PromFamily, sample string) string {
	for _, suffix := range [...]string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(sample, suffix)
		if !ok {
			continue
		}
		if f := fams[base]; f != nil && f.Type == "histogram" {
			return base
		}
	}
	return sample
}
