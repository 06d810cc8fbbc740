package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
)

// This file implements metric federation over typed registry snapshots:
// Registry.Snapshot reads a registry into a mergeable model, workers ship
// that model on their heartbeat, and the coordinator validates it, relabels
// worker families under the fleet namespace with a worker label, merges
// snapshots (summing counters/gauges, bucket-wise histogram addition), and
// renders the result with the one renderer every /metrics endpoint shares —
// so a federated scrape is deterministic for any scrape order and passes
// the strict exposition linter.

// HistValue is a histogram series: bucket upper bounds (ascending,
// excluding +Inf), per-bucket (non-cumulative) counts with the +Inf bucket
// last, and the running sum.
type HistValue struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
}

// SeriesValue is one sample stream: its labels and either a histogram or a
// scalar. A scalar is an integer (Int, set for Counter and Gauge series and
// rendered with %d) or a float (Float, for func-backed series and merged
// sums, rendered via formatFloat); the two spellings differ at scale —
// 1000000 versus 1e+06 — so the distinction survives transport.
type SeriesValue struct {
	Labels []Label    `json:"labels,omitempty"`
	Int    *int64     `json:"int,omitempty"`
	Float  float64    `json:"float,omitempty"`
	Hist   *HistValue `json:"hist,omitempty"`
}

// value returns the scalar value as a float.
func (sv SeriesValue) value() float64 {
	if sv.Int != nil {
		return float64(*sv.Int)
	}
	return sv.Float
}

// clone deep-copies the series so merges never alias a registry's or a
// peer's slices.
func (sv SeriesValue) clone() SeriesValue {
	sv.Labels = append([]Label(nil), sv.Labels...)
	if sv.Int != nil {
		v := *sv.Int
		sv.Int = &v
	}
	if sv.Hist != nil {
		sv.Hist = &HistValue{
			Bounds: append([]float64(nil), sv.Hist.Bounds...),
			Counts: append([]int64(nil), sv.Hist.Counts...),
			Sum:    sv.Hist.Sum,
		}
	}
	return sv
}

// Family is one metric family: "counter", "gauge", or "histogram".
type Family struct {
	Help   string        `json:"help"`
	Kind   string        `json:"kind"`
	Series []SeriesValue `json:"series"`
}

// Snapshot is a point-in-time, mergeable view of one registry (or of a
// whole fleet after federation), keyed by family name. It is also the
// heartbeat's metrics payload, encoded as JSON.
type Snapshot struct {
	Families map[string]*Family `json:"families"`
}

// NewSnapshot builds an empty snapshot.
func NewSnapshot() *Snapshot { return &Snapshot{Families: make(map[string]*Family)} }

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Validate checks a snapshot decoded from a peer before it is merged or
// rendered: valid family and label names, a known kind, no duplicate series
// or label keys, histogram series exactly in histogram families, and
// well-formed histograms (one count per bucket plus +Inf, strictly
// ascending finite bounds, non-negative counts).
func (s *Snapshot) Validate() error {
	for name, f := range s.Families {
		if !metricNameRe.MatchString(name) {
			return fmt.Errorf("obs: invalid family name %q", name)
		}
		if f == nil {
			return fmt.Errorf("obs: family %s is null", name)
		}
		switch f.Kind {
		case "counter", "gauge", "histogram":
		default:
			return fmt.Errorf("obs: family %s has unknown kind %q", name, f.Kind)
		}
		seen := make(map[string]bool, len(f.Series))
		for _, sv := range f.Series {
			key := renderLabels(sv.Labels)
			if seen[key] {
				return fmt.Errorf("obs: duplicate series %s%s", name, key)
			}
			seen[key] = true
			keys := make(map[string]bool, len(sv.Labels))
			for _, l := range sv.Labels {
				if !labelNameRe.MatchString(l.Key) || keys[l.Key] {
					return fmt.Errorf("obs: series %s%s: invalid or repeated label %q", name, key, l.Key)
				}
				keys[l.Key] = true
			}
			if (f.Kind == "histogram") != (sv.Hist != nil) {
				return fmt.Errorf("obs: series %s%s: histogram vs scalar in a %s family", name, key, f.Kind)
			}
			if h := sv.Hist; h != nil {
				if len(h.Counts) != len(h.Bounds)+1 {
					return fmt.Errorf("obs: histogram %s%s: %d counts for %d bounds", name, key, len(h.Counts), len(h.Bounds))
				}
				for i, b := range h.Bounds {
					if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && b <= h.Bounds[i-1]) {
						return fmt.Errorf("obs: histogram %s%s: bounds not strictly ascending and finite", name, key)
					}
				}
				for _, c := range h.Counts {
					if c < 0 {
						return fmt.Errorf("obs: histogram %s%s: negative bucket count", name, key)
					}
				}
			}
		}
	}
	return nil
}

// FleetFamilyName maps a worker-local family name into the fleet namespace:
// already-fleet families keep their name, other xtalkd_* families move
// under xtalkd_fleet_*, and anything else is prefixed wholesale.
func FleetFamilyName(name string) string {
	if strings.HasPrefix(name, "xtalkd_fleet_") {
		return name
	}
	if strings.HasPrefix(name, "xtalkd_") {
		return "xtalkd_fleet_" + strings.TrimPrefix(name, "xtalkd_")
	}
	return "xtalkd_fleet_" + name
}

// Relabel returns a copy of the snapshot with every family renamed via
// FleetFamilyName and every series tagged with a worker label. Families
// whose fleet names coincide merge as Add does.
func (s *Snapshot) Relabel(worker string) (*Snapshot, error) {
	if s == nil {
		return nil, nil
	}
	out := NewSnapshot()
	for name, f := range s.Families {
		nf := &Family{Help: f.Help, Kind: f.Kind, Series: make([]SeriesValue, len(f.Series))}
		for i, sv := range f.Series {
			nf.Series[i] = sv.clone()
			nf.Series[i].Labels = append(nf.Series[i].Labels, Label{Key: "worker", Value: worker})
		}
		one := &Snapshot{Families: map[string]*Family{FleetFamilyName(name): nf}}
		if err := out.Add(one); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Add merges src into s: counters and gauges sum, histograms add
// bucket-wise (bounds must agree), and series or families absent from s are
// deep-copied in. A summed scalar becomes a float and renders via
// formatFloat.
func (s *Snapshot) Add(src *Snapshot) error {
	if s == nil || src == nil {
		return nil
	}
	for name, sf := range src.Families {
		f, ok := s.Families[name]
		if !ok {
			f = &Family{Help: sf.Help, Kind: sf.Kind}
			s.Families[name] = f
		} else if f.Kind != sf.Kind {
			return fmt.Errorf("obs: federate %s: kind %s vs %s", name, f.Kind, sf.Kind)
		}
		index := make(map[string]int, len(f.Series))
		for i := range f.Series {
			index[renderLabels(f.Series[i].Labels)] = i
		}
		for _, sv := range sf.Series {
			key := renderLabels(sv.Labels)
			i, ok := index[key]
			if !ok {
				index[key] = len(f.Series)
				f.Series = append(f.Series, sv.clone())
				continue
			}
			cur := &f.Series[i]
			if (cur.Hist == nil) != (sv.Hist == nil) {
				return fmt.Errorf("obs: federate %s%s: histogram vs scalar", name, key)
			}
			if cur.Hist == nil {
				cur.Float = cur.value() + sv.value()
				cur.Int = nil
				continue
			}
			if len(cur.Hist.Bounds) != len(sv.Hist.Bounds) {
				return fmt.Errorf("obs: federate %s%s: bucket bound mismatch", name, key)
			}
			for i, b := range cur.Hist.Bounds {
				if b != sv.Hist.Bounds[i] {
					return fmt.Errorf("obs: federate %s%s: bucket bound mismatch", name, key)
				}
			}
			for i := range cur.Hist.Counts {
				cur.Hist.Counts[i] += sv.Hist.Counts[i]
			}
			cur.Hist.Sum += sv.Hist.Sum
		}
	}
	return nil
}

// Federate merges per-worker snapshots into one fleet snapshot, iterating
// workers in sorted name order so the result is byte-stable for any scrape
// arrival order.
func Federate(snaps map[string]*Snapshot) (*Snapshot, error) {
	out := NewSnapshot()
	names := make([]string, 0, len(snaps))
	for name := range snaps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rl, err := snaps[name].Relabel(name)
		if err != nil {
			return nil, err
		}
		if err := out.Add(rl); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Value looks up a scalar series value by family name and rendered label
// string ("" for the unlabeled series).
func (s *Snapshot) Value(name, labels string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	f, ok := s.Families[name]
	if !ok {
		return 0, false
	}
	for i := range f.Series {
		if sv := &f.Series[i]; sv.Hist == nil && renderLabels(sv.Labels) == labels {
			return sv.value(), true
		}
	}
	return 0, false
}

// WritePrometheus renders the snapshot as Prometheus text exposition:
// families in name order, each with one # HELP and # TYPE line, series in
// rendered-label order, histograms expanded into cumulative _bucket series
// (le merged into the labels) plus _sum and _count.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Families))
	for name := range s.Families {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		f := s.Families[name]
		help := strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(f.Help)
		fmt.Fprintf(bw, "# HELP %s %s\n", name, help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, f.Kind)
		keys := make([]string, len(f.Series))
		order := make([]int, len(f.Series))
		for i := range f.Series {
			keys[i] = renderLabels(f.Series[i].Labels)
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
		for _, i := range order {
			sv, labels := &f.Series[i], keys[i]
			switch {
			case sv.Hist != nil:
				writeHistogram(bw, name, labels, sv.Hist)
			case sv.Int != nil:
				fmt.Fprintf(bw, "%s%s %d\n", name, labels, *sv.Int)
			default:
				fmt.Fprintf(bw, "%s%s %s\n", name, labels, formatFloat(sv.Float))
			}
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram series: cumulative buckets with the
// le label merged into any existing labels, then _sum and _count.
func writeHistogram(w io.Writer, name, labels string, h *HistValue) {
	merge := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return labels[:len(labels)-1] + `,le="` + le + `"}`
	}
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, merge(formatFloat(bound)), cum)
	}
	cum += h.Counts[len(h.Bounds)]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, merge("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}
