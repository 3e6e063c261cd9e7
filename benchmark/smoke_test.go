package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func loadDoc(t *testing.T, path string) *document {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return &d
}

// All five workloads at tiny scale, then the traced run on the two stacks
// with the most layers: every run verifies, no op fails, every end-to-end
// metric is a positive number, and the whole thing stays under 15 s.
func TestTinySmoke(t *testing.T) {
	start := time.Now()
	dir := t.TempDir()
	out := filepath.Join(dir, "e2e.json")
	if code := run([]string{"-scale", "tiny", "-seconds", "1.1", "-seed", "5", "-tmp", dir, "-out", out}, nil); code != 0 {
		t.Fatalf("tiny run of all workloads exited %d", code)
	}
	doc := loadDoc(t, out)
	if doc.Env.Seed != 5 || doc.Env.Scale != "tiny" || doc.Env.GoVersion == "" || doc.Env.GOMAXPROCS == 0 || doc.Env.Loaders != 2 {
		t.Errorf("env incomplete: %+v", doc.Env)
	}
	for _, w := range workloadCatalog {
		res := doc.Workloads[w.Name]
		if res == nil {
			t.Fatalf("workload %s missing from the document", w.Name)
		}
		if !res.Correct || res.Failed != 0 || res.E2E["failed_ops_ratio"] != 0 {
			t.Errorf("%s: correct=%v failed=%d: %s", w.Name, res.Correct, res.Failed, res.FirstError)
		}
		for _, m := range e2eCatalog {
			if v := res.E2E[m.Name]; math.IsNaN(v) || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, m.Name, v)
			}
		}
		for _, m := range []string{"write_amp", "recover_keys_s"} {
			if v := res.E2E[m]; (w.Name == stackDurable) != (v > 0) {
				t.Errorf("%s: %s = %v", w.Name, m, v)
			}
		}
		if len(res.Windows) == 0 || len(res.Samples) == 0 {
			t.Errorf("%s: windows or sample counts missing", w.Name)
		}
	}

	for _, w := range []string{stackServed, stackDurable} {
		out := filepath.Join(dir, "trace-"+w+".json")
		spans := filepath.Join(dir, "spans-"+w+".jsonl")
		if code := run([]string{"-scale", "tiny", "-seconds", "1.1", "-trace", "1", "-workload", w, "-tmp", dir, "-out", out, "-trace-out", spans}, nil); code != 0 {
			t.Fatalf("traced tiny run of %s exited %d", w, code)
		}
		res := loadDoc(t, out).Workloads[w]
		if !res.Correct || res.Failed != 0 {
			t.Errorf("traced %s: correct=%v failed=%d: %s", w, res.Correct, res.Failed, res.FirstError)
		}
		for _, m := range layerCatalog {
			if v, ok := res.Layers[m.Name]; !ok || math.IsNaN(v) {
				t.Errorf("traced %s: per-layer metric %s missing (%v)", w, m.Name, v)
			}
		}
		if res.Layers["trace.spans"] <= 0 || res.Layers["trace.overhead_ratio"] <= 0 || res.Layers["core.get_ns"] <= 0 {
			t.Errorf("traced %s: spans %v, overhead %v, core.get_ns %v", w, res.Layers["trace.spans"], res.Layers["trace.overhead_ratio"], res.Layers["core.get_ns"])
		}
		f, err := os.Open(spans)
		if err != nil {
			t.Fatal(err)
		}
		lines := 0
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var v map[string]any
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				t.Fatalf("span file line %d: %v", lines, err)
			}
			lines++
		}
		f.Close()
		if lines < 100 {
			t.Errorf("span file of %s has %d lines", w, lines)
		}
		if w != stackServed {
			continue
		}
		// On served every client span splits into the store calls it
		// caused and the wire, server and client share.
		for _, name := range []string{"get", "put", "scan_long"} {
			s := res.SelfTime[name]
			if s.Spans == 0 || s.ChildNs <= 0 {
				t.Errorf("served: no store children under %s spans: %+v", name, s)
			}
			if d := math.Abs(s.TotalNs-s.ChildNs-s.SelfNs) / s.TotalNs; d > 0.01 {
				t.Errorf("served: %s span time %v != child %v + self %v", name, s.TotalNs, s.ChildNs, s.SelfNs)
			}
		}
		if g := res.Layers["server.store_share_get"]; g <= 0 || g >= 1 {
			t.Errorf("served: store_share_get = %v", g)
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, want under 15 s", d)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "run-") {
			t.Errorf("run directory %s was left behind", e.Name())
		}
	}
}

// wrongGet answers one Get in a thousand with a wrong value.
type wrongGet struct {
	kv
	n int
}

func (w *wrongGet) Get(k int64) (int64, bool, error) {
	v, ok, err := w.kv.Get(k)
	if w.n++; w.n%1000 == 0 {
		v++
	}
	return v, ok, err
}

func TestWrongAnswerFailsTheRun(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	code := run([]string{"-scale", "tiny", "-seconds", "1.1", "-workload", "mem", "-tmp", dir, "-out", out},
		func(inner kv) kv { return &wrongGet{kv: inner} })
	if code == 0 {
		t.Fatal("a store that answers wrongly exited 0")
	}
	res := loadDoc(t, out).Workloads["mem"]
	if res.Correct || res.Failed == 0 || res.E2E["failed_ops_ratio"] <= 0 || !strings.Contains(res.FirstError, "get") {
		t.Fatalf("correct=%v failed=%d ratio=%v first error %q", res.Correct, res.Failed, res.E2E["failed_ops_ratio"], res.FirstError)
	}
}

// stuckGet never answers its 100th Get until released.
type stuckGet struct {
	kv
	n       int
	release chan struct{}
}

func (s *stuckGet) Get(k int64) (int64, bool, error) {
	if s.n++; s.n == 100 {
		<-s.release
	}
	return s.kv.Get(k)
}

func (s *stuckGet) Scan(lo, hi int64, fn func(k, v int64) bool) error {
	<-s.release
	return s.kv.Scan(lo, hi, fn)
}

func TestWatchdogAbortsAHungPhase(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	dir := t.TempDir()
	s := spec(options{seed: 1, scale: "tiny", seconds: 0.66}, "mem", dir)
	s.wrapKV = func(inner kv) kv { return &stuckGet{kv: inner, release: release} }
	start := time.Now()
	res := execute(s)
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("hung run took %v to abort", d)
	}
	if res.Correct || res.Failed == 0 || res.PhaseReached != "rw" || !strings.Contains(res.FirstError, "hung") {
		t.Fatalf("correct=%v failed=%d reached=%s first error %q", res.Correct, res.Failed, res.PhaseReached, res.FirstError)
	}
	if res.Attempted < 100 {
		t.Fatalf("attempted = %d: the ops that finished before the hang were lost", res.Attempted)
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bj.Workloads) != len(workloadCatalog) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloadCatalog))
	}
	for i, w := range workloadCatalog {
		if bj.Workloads[i].Name != w.Name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bj.Workloads[i].Name, w.Name)
		}
		if why := bj.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []boundedMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json {%s %s %s}, program {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name or unit: %s %s", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, g.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eCatalog, true)
	check("per_layer", bj.PerLayer, perLayerCatalog(), false)
	if len(layerCatalog) != 89 {
		t.Errorf("the issue names 89 per-layer metrics, the catalog has %d", len(layerCatalog))
	}
}

// The README's catalog names every metric and workload.
func TestReadmeNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	for _, m := range append(append([]metricDef{}, e2eCatalog...), perLayerCatalog()...) {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not list %s", m.Name)
		}
	}
	for _, w := range workloadCatalog {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not describe workload %s", w.Name)
		}
	}
}
