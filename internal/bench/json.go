package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// Machine-readable benchmark output. `pmabench -json FILE` collects every
// experiment it runs into one Report and writes it as indented JSON; CI
// uploads the tiny-scale report as an artifact on every run, and full-scale
// local runs are committed as BENCH_<pr>.json at the repository root to
// record the performance trajectory across PRs. The schema is deliberately
// flat — one (experiment, name, labels, unit, value) row per measurement —
// so trend tooling can diff reports without knowing every experiment.

// Metric is one measurement row.
type Metric struct {
	Experiment string            `json:"experiment"`
	Name       string            `json:"name"`
	Labels     map[string]string `json:"labels,omitempty"`
	Unit       string            `json:"unit"`
	Value      float64           `json:"value"`
}

// Report is the top-level document.
type Report struct {
	SchemaVersion int      `json:"schema_version"`
	CreatedAt     string   `json:"created_at"`
	GoVersion     string   `json:"go_version"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	Scale         Scale    `json:"scale"`
	Metrics       []Metric `json:"metrics"`
}

// NewReport starts an empty report stamped with the run environment.
func NewReport(sc Scale) *Report {
	return &Report{
		SchemaVersion: 1,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Scale:         sc,
	}
}

// Add appends one measurement.
func (r *Report) Add(experiment, name string, labels map[string]string, unit string, value float64) {
	if r == nil {
		return
	}
	r.Metrics = append(r.Metrics, Metric{
		Experiment: experiment,
		Name:       name,
		Labels:     labels,
		Unit:       unit,
		Value:      value,
	})
}

// AddResults flattens the figure-style harness results (update and scan
// throughput per store and distribution) into metric rows.
func (r *Report) AddResults(experiment string, rs []Result, showScans bool) {
	if r == nil {
		return
	}
	for _, res := range rs {
		labels := map[string]string{"store": res.Store, "distribution": res.Dist.String()}
		r.Add(experiment, "updates", labels, "ops/s", res.UpdatesPerSec)
		if showScans {
			r.Add(experiment, "scanned", labels, "elements/s", res.ScansPerSec)
		}
	}
}

// WriteFile writes the report as indented JSON via a temp-file rename, so a
// crashed run never leaves a half-written report behind.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
