package main

import (
	"io"
	"math"
	"testing"
)

func docWith(update, p99 float64, failed int64) *document {
	return &document{Workloads: map[string]*workloadResult{"mem": {
		Correct: failed == 0, Attempted: 1000, Failed: failed,
		E2E:    metrics{"update_ops_s": update, "update_p99_us": p99, "get_p99_us": 2},
		Layers: metrics{"core.put_ns": 100},
	}}}
}

func TestCompareVerdicts(t *testing.T) {
	bj := &benchmarkJSON{
		EndToEnd: []boundedMetric{{"update_ops_s", "1/s", "higher", 0.10}, {"update_p99_us", "us", "lower", 0.10}},
		PerLayer: []boundedMetric{{Name: "get_p99_us", Unit: "us", Better: "lower"}, {Name: "core.put_ns", Unit: "ns", Better: "lower"}},
	}
	bj.Workloads = append(bj.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "mem"})
	out := io.Discard

	one := func(d *document) []*document { return []*document{d} }
	// Within the bound both ways.
	if r, u := compareDocs(out, bj, one(docWith(1000, 10, 0)), one(docWith(950, 10.5, 0))); r != 0 || u != 0 {
		t.Errorf("5 %% worse: %d regressions, %d unresolved", r, u)
	}
	// Throughput fell by 20 %: a regression for a higher-is-better metric.
	if r, _ := compareDocs(out, bj, one(docWith(1000, 10, 0)), one(docWith(800, 10, 0))); r != 1 {
		t.Errorf("throughput -20 %%: %d regressions, want 1", r)
	}
	// Latency rose by 20 %: a regression for a lower-is-better metric; a
	// fall is not.
	if r, _ := compareDocs(out, bj, one(docWith(1000, 10, 0)), one(docWith(1000, 12, 0))); r != 1 {
		t.Errorf("latency +20 %%: %d regressions, want 1", r)
	}
	if r, _ := compareDocs(out, bj, one(docWith(1000, 10, 0)), one(docWith(1300, 7, 0))); r != 0 {
		t.Errorf("better on both: %d regressions, want 0", r)
	}
	// More failed ops is always a regression.
	if r, _ := compareDocs(out, bj, one(docWith(1000, 10, 0)), one(docWith(1000, 10, 3))); r != 1 {
		t.Errorf("failed ops rose: %d regressions, want 1", r)
	}
	// Several documents a side: medians are compared, and a side whose own
	// spread exceeds the bound makes the metric unresolved, not regressed.
	steadyA := []*document{docWith(1000, 10, 0), docWith(1010, 10, 0), docWith(990, 10, 0), docWith(1005, 10, 0), docWith(995, 10, 0)}
	steadyB := []*document{docWith(800, 10, 0), docWith(810, 10, 0), docWith(790, 10, 0), docWith(805, 10, 0), docWith(795, 10, 0)}
	if r, u := compareDocs(out, bj, steadyA, steadyB); r != 1 || u != 0 {
		t.Errorf("steady sets: %d regressions, %d unresolved, want 1 and 0", r, u)
	}
	noisyB := []*document{docWith(500, 10, 0), docWith(1100, 10, 0), docWith(700, 10, 0), docWith(900, 10, 0), docWith(800, 10, 0)}
	if r, u := compareDocs(out, bj, steadyA, noisyB); r != 0 || u != 1 {
		t.Errorf("noisy set: %d regressions, %d unresolved, want 0 and 1", r, u)
	}
	// A noisy side does not hide a regression its quartiles cannot explain.
	farB := []*document{docWith(100, 10, 0), docWith(300, 10, 0), docWith(150, 10, 0), docWith(250, 10, 0), docWith(200, 10, 0)}
	if r, u := compareDocs(out, bj, steadyA, farB); r != 1 || u != 0 {
		t.Errorf("noisy set 80 %% down: %d regressions, %d unresolved, want 1 and 0", r, u)
	}
	// Failed ops in a minority of B's documents are a regression.
	someFail := []*document{docWith(1000, 10, 0), docWith(1010, 10, 2), docWith(990, 10, 0), docWith(1005, 10, 1), docWith(995, 10, 0)}
	if r, _ := compareDocs(out, bj, steadyA, someFail); r != 1 {
		t.Errorf("failed ops in 2 of 5 documents: %d regressions, want 1", r)
	}
	// An end-to-end metric BENCHMARK.json lists per layer is gated with
	// its bound from compareBounds; a plain per-layer metric is not.
	tail := docWith(1000, 10, 0)
	tail.Workloads["mem"].E2E["get_p99_us"] = 2 * (1 + 2*compareBounds["get_p99_us"]["mem"])
	tail.Workloads["mem"].Layers["core.put_ns"] = 900
	if r, _ := compareDocs(out, bj, one(docWith(1000, 10, 0)), one(tail)); r != 1 {
		t.Errorf("get_p99_us beyond its bound: %d regressions, want 1", r)
	}
	// What A has and B lacks is a regression: a metric, or the workload.
	lacks := docWith(1000, 10, 0)
	lacks.Workloads["mem"].E2E["update_p99_us"] = math.NaN()
	if r, _ := compareDocs(out, bj, one(docWith(1000, 10, 0)), one(lacks)); r != 1 {
		t.Errorf("metric missing in B: %d regressions, want 1", r)
	}
	if r, _ := compareDocs(out, bj, one(docWith(1000, 10, 0)), one(&document{})); r != 1 {
		t.Errorf("workload missing in B: %d regressions, want 1", r)
	}
}

// Every end-to-end metric that BENCHMARK.json cannot bound has a bound for
// -compare on every workload that reports it, and nothing else has.
func TestCompareBoundsCoverCompareCatalog(t *testing.T) {
	if len(compareBounds) != len(compareCatalog) {
		t.Errorf("%d bounds for %d metrics", len(compareBounds), len(compareCatalog))
	}
	for _, m := range compareCatalog {
		want := len(workloadCatalog)
		if m.Layer == "persist" {
			want = 1 // durable only
		}
		if len(compareBounds[m.Name]) != want {
			t.Errorf("%s: bounds on %d workloads, want %d", m.Name, len(compareBounds[m.Name]), want)
		}
		for _, w := range workloadCatalog {
			b, ok := compareBounds[m.Name][w.Name]
			if want == 1 && w.Name != stackDurable {
				continue
			}
			if !ok || b < 0.10 {
				t.Errorf("%s on %s: bound %v, want at least 0.10", m.Name, w.Name, b)
			}
		}
	}
}
