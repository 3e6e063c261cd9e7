package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

// benchmarkJSON is the part of BENCHMARK.json the compare mode reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmarkJSON reads BENCHMARK.json from the working directory, the
// root of a checkout, or from its parent, for a run inside benchmark/.
func loadBenchmarkJSON() (*benchmarkJSON, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bj benchmarkJSON
		if err := json.Unmarshal(b, &bj); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &bj, nil
	}
	return nil, firstErr
}

func loadDocuments(list string) ([]*document, error) {
	var docs []*document
	for _, p := range strings.Split(list, ",") {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		docs = append(docs, &d)
	}
	return docs, nil
}

// side is one side's values of one metric on one workload.
type side struct {
	values     []float64
	q1, q2, q3 float64
}

func newSide(docs []*document, workload string, get func(*workloadResult) float64) side {
	var s side
	for _, d := range docs {
		if w := d.Workloads[workload]; w != nil {
			if v := get(w); !math.IsNaN(v) {
				s.values = append(s.values, v)
			}
		}
	}
	if len(s.values) > 0 {
		s.q1, s.q2, s.q3 = quartiles(s.values)
	}
	return s
}

// spread is the distance between the quartiles as a share of the median.
func (s side) spread() float64 {
	if len(s.values) < 2 || s.q2 == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.q2)
}

func (s side) String() string {
	switch len(s.values) {
	case 0:
		return "n/a"
	case 1:
		return fmt.Sprintf("%.5g", s.q2)
	}
	return fmt.Sprintf("%.5g [%.5g, %.5g]", s.q2, s.q1, s.q3)
}

// worse is how much worse b's median is than a's, as a share of a's:
// positive is a regression whatever the metric's direction.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// compareMain prints, per workload and metric, side A, side B, the relative
// change and the bound, and exits non-zero on any regression (see
// compareDocs).
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two arguments: A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	bj, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: bounds:", err)
		return 2
	}
	a, err := loadDocuments(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadDocuments(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	regressions, unresolved := compareDocs(os.Stdout, bj, a, b)
	fmt.Printf("\n%d regression(s), %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}

// verdict judges one gated metric. With both sides steady, B's median may be
// worse than A's by at most the bound. When a side's own spread exceeds the
// bound its median settles nothing, so the metric is unresolved, unless even
// B's better quartile is worse than A's worse quartile by more than the
// bound: noise cannot hide a regression that large.
func verdict(sa, sb side, m boundedMetric) string {
	if sa.spread() <= m.Bound && sb.spread() <= m.Bound {
		switch d := worse(sa.q2, sb.q2, m.Better); {
		case d > m.Bound:
			return "REGRESSION"
		case d < -m.Bound:
			return "better"
		}
		return "ok"
	}
	worstA, bestB := sa.q3, sb.q1
	if m.Better == "higher" {
		worstA, bestB = sa.q1, sb.q3
	}
	if worse(worstA, bestB, m.Better) > m.Bound {
		return "REGRESSION"
	}
	return "unresolved"
}

// compareDocs writes the comparison table and counts regressions and
// unresolved metrics. Gated are the end-to-end metrics of BENCHMARK.json with
// its bounds and the end-to-end metrics of compareBounds on the workloads
// they have a bound for; the other per-layer metrics are shown without a
// verdict. A regression is a gated metric of B
// worse than its bound (see verdict), a workload or gated metric A has and B
// lacks, or a higher share of failed ops over all of B's documents than over
// all of A's.
func compareDocs(out io.Writer, bj *benchmarkJSON, a, b []*document) (regressions, unresolved int) {
	var shown []boundedMetric
	for _, m := range bj.PerLayer {
		if compareBounds[m.Name] == nil {
			shown = append(shown, m)
		}
	}
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA (%d)\tB (%d)\tchange\tbound\tverdict\n", len(a), len(b))
	for _, w := range bj.Workloads {
		present := func(docs []*document) bool {
			return slices.ContainsFunc(docs, func(d *document) bool { return d.Workloads[w.Name] != nil })
		}
		if !present(a) {
			continue
		}
		if !present(b) {
			regressions++
			fmt.Fprintf(tw, "%s\t(workload)\tpresent\tmissing\t\t\tREGRESSION\n", w.Name)
			continue
		}
		gated := slices.Clone(bj.EndToEnd)
		for _, m := range bj.PerLayer {
			if bound, ok := compareBounds[m.Name][w.Name]; ok {
				m.Bound = bound
				gated = append(gated, m)
			}
		}
		for _, m := range gated {
			get := func(r *workloadResult) float64 { return r.value(m.Name) }
			sa, sb := newSide(a, w.Name, get), newSide(b, w.Name, get)
			if len(sa.values) == 0 {
				continue // does not apply to this workload
			}
			v, change := "REGRESSION", "missing"
			if len(sb.values) > 0 {
				v, change = verdict(sa, sb, m), fmt.Sprintf("%+.1f%%", 100*(sb.q2-sa.q2)/math.Abs(sa.q2))
			}
			switch v {
			case "REGRESSION":
				regressions++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s (%s, %s)\t%s\t%s\t%s\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, m.Better, sa, sb, change, 100*m.Bound, v)
		}
		fa, fb := failedShare(a, w.Name), failedShare(b, w.Name)
		v := "ok"
		if fb > fa {
			v = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(tw, "%s\tfailed_ops_ratio\t%.3g\t%.3g\t\t0%%\t%s\n", w.Name, fa, fb, v)
		for _, m := range shown {
			get := func(r *workloadResult) float64 { return r.value(m.Name) }
			sa, sb := newSide(a, w.Name, get), newSide(b, w.Name, get)
			if len(sa.values) == 0 || len(sb.values) == 0 || (sa.q2 == 0 && sb.q2 == 0) {
				continue
			}
			change := "n/a"
			if sa.q2 != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(sb.q2-sa.q2)/math.Abs(sa.q2))
			}
			fmt.Fprintf(tw, "%s\t  %s (%s)\t%s\t%s\t%s\t\t\n", w.Name, m.Name, m.Unit, sa, sb, change)
		}
	}
	tw.Flush()
	return regressions, unresolved
}

// failedShare is the failed ops of a workload over all of a side's
// documents as a share of the ops attempted, so that wrong answers in a
// minority of the runs still show.
func failedShare(docs []*document, workload string) float64 {
	var failed, attempted int64
	for _, d := range docs {
		if w := d.Workloads[workload]; w != nil {
			failed += w.Failed
			attempted += w.Attempted
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}
