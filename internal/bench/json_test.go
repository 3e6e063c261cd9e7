package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pmago/internal/workload"
)

// TestReportRoundTrip pins the -json report surface: nil receivers are
// no-ops (so drivers can add metrics unconditionally), results flatten into
// rows, and WriteFile output parses back.
func TestReportRoundTrip(t *testing.T) {
	var nilReport *Report
	nilReport.Add("x", "y", nil, "ops/s", 1) // must not panic
	nilReport.AddResults("x", []Result{{}}, true)

	r := NewReport(Scale{LoadN: 1, Threads: 2})
	r.Add("figure4a", "updates", map[string]string{"variant": "1by1"}, "ops/s", 123.5)
	r.AddResults("figure3a", []Result{{Store: "PMA", Dist: workload.Uniform(), UpdatesPerSec: 7, ScansPerSec: 9}}, true)
	r.AddResults("figure3d", []Result{{Store: "PMA", Dist: workload.Uniform(), UpdatesPerSec: 5, ScansPerSec: 3}}, false)
	if len(r.Metrics) != 1+2+1 {
		t.Fatalf("got %d metrics, want 4", len(r.Metrics))
	}

	path := filepath.Join(t.TempDir(), "report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not parse back: %v", err)
	}
	if back.SchemaVersion != 1 || len(back.Metrics) != len(r.Metrics) {
		t.Fatalf("round trip lost data: schema %d, %d metrics", back.SchemaVersion, len(back.Metrics))
	}
	if back.Metrics[0].Labels["variant"] != "1by1" {
		t.Fatalf("labels lost: %+v", back.Metrics[0])
	}
}
