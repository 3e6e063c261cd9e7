// Command benchmark is pmago's one benchmark: one fixed three-phase script
// pushed through five stacks, so that the difference between two workloads
// is the cost of a layer. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// env records where and how a document was measured.
type env struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Loaders    int     `json:"load_goroutines"`
	Seed       uint64  `json:"seed"`
	Commit     string  `json:"git_commit"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Loop       string  `json:"loop"`
}

// document is the one JSON document a run writes.
type document struct {
	Env       env                        `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// options are the command line.
type options struct {
	seed     uint64
	workload string
	seconds  float64
	trace    int
	scale    string
	out      string
	traceOut string
	tmp      string
	compare  bool
	wrapKV   func(kv) kv
}

func parseFlags(args []string) (options, []string, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input; changes inputs only, never sizes or durations")
	fs.StringVar(&o.workload, "workload", "", "one of mem, mem-compressed, durable, sharded, served; empty runs all five")
	fs.Float64Var(&o.seconds, "seconds", 22, "measuring time of one run, split 10:6:6 over rw, scan and ingest")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run and layer drives, per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or tiny for the smoke tests")
	fs.StringVar(&o.out, "out", "", "write the run's JSON document to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.jsonl)")
	fs.StringVar(&o.tmp, "tmp", ".bench_build", "directory for durable state and span files; created if missing")
	fs.BoolVar(&o.compare, "compare", false, "compare two sets of documents: -compare A.json[,A2.json...] B.json[,B2.json...]")
	if err := fs.Parse(args); err != nil {
		return o, nil, err
	}
	if o.trace != 0 && o.trace != 1 {
		return o, nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.scale != "full" && o.scale != "tiny" {
		return o, nil, fmt.Errorf("-scale must be full or tiny")
	}
	if o.seconds <= 0 {
		return o, nil, fmt.Errorf("-seconds must be positive")
	}
	return o, fs.Args(), nil
}

func main() {
	os.Exit(run(os.Args[1:], nil))
}

// run is the command: it returns the exit status. wrapKV is nil except in
// the tests, which use it to make the system under test answer wrongly.
func run(args []string, wrapKV func(kv) kv) int {
	o, rest, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	o.wrapKV = wrapKV
	if o.compare {
		return compareMain(rest)
	}
	if len(rest) > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments:", rest)
		return 2
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloadCatalog {
			names = append(names, w.Name)
		}
	} else if !slices.ContainsFunc(workloadCatalog, func(w workloadDef) bool { return w.Name == o.workload }) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}

	// Durable state and span files live under one run directory that is
	// removed on every exit path, signals included.
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	runDir, err := os.MkdirTemp(o.tmp, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	sig, finished := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	defer close(finished)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(runDir)
			os.Exit(130)
		case <-finished:
		}
	}()

	doc := &document{
		Env: env{
			GoVersion: runtime.Version(), GOMAXPROCS: gomaxprocs(), NumCPU: runtime.NumCPU(), Loaders: 2,
			Seed: o.seed, Commit: gitCommit(), Scale: o.scale, Seconds: o.seconds, Traced: o.trace == 1,
			Loop: "closed: two goroutines, each waits for its reply; stalls under-count (coordinated omission)",
		},
		Workloads: map[string]*workloadResult{},
	}
	ok := true
	var tr *tracer
	for _, w := range names {
		var res *workloadResult
		if o.trace == 1 {
			if tr == nil {
				tr = newTracerFor(o)
			}
			res = runTraced(o, w, runDir, tr)
		} else {
			res = execute(spec(o, w, runDir))
		}
		doc.Workloads[w] = res
		printWorkload(os.Stdout, w, res, o.trace == 1)
		ok = ok && res.Correct
	}
	if o.out != "" {
		if err := writeJSON(o.out, doc); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			ok = false
		}
	}
	if len(names) == 1 {
		printContractLine(doc.Workloads[names[0]], o.trace == 1)
	}
	if !ok {
		os.RemoveAll(runDir)
		return 1
	}
	return 0
}

// gitCommit is the checkout's commit, or "unknown" outside a repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// repetitions is how many times an untraced run repeats the script, each
// time on a freshly built stack with its share of the measuring time; the
// run reports the median over the repetitions.
const repetitions = 4

// spec is the run of workload w's script that the options ask for.
func spec(o options, w, tmp string) runSpec {
	s := runSpec{
		workload: w, stack: w, seed: o.seed, n: preloadSize(w, o.scale),
		times: splitSeconds(o.seconds / repetitions), reps: repetitions, tmp: tmp,
		verifyN: 100000 / repetitions, wrapKV: o.wrapKV,
	}
	if o.scale == "tiny" {
		s.verifyN = 2000
	}
	return s
}

// execute runs the script's repetitions and aggregates them; errors
// outside the store (set-up, teardown) fail the run.
func execute(s runSpec) *workloadResult {
	bufs := newBuffers(s.times, s.tracer != nil)
	var reps []*workloadResult
	var last *stack
	for rep := 0; rep < s.reps; rep++ {
		r := &scriptRun{spec: s, rep: rep, bufs: bufs, prev: last}
		last = nil // the repetition owns it now; a closed store must not stay reachable
		err := r.execute()
		res := r.summarise()
		res.Correct = err == nil && res.Failed == 0
		if err != nil && !errors.Is(err, errAborted) {
			res.failStep(err)
		}
		reps = append(reps, res)
		last = r.st
		if err != nil {
			break
		}
	}
	var ownHeap uint64
	if last != nil {
		if err := withDeadline("teardown", last.teardown); err != nil {
			reps[len(reps)-1].failStep(err)
		} else {
			ownHeap = heapNow()
		}
	}
	// The sample buffers were live when each repetition's heap was taken,
	// so they must be live when the benchmark's own heap is.
	runtime.KeepAlive(bufs)
	return aggregate(reps, ownHeap)
}

// withDeadline runs a step outside the script under the watchdog deadline
// of the untimed steps.
func withDeadline(name string, f func() error) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("%s panicked: %v", name, p)
			}
		}()
		done <- f()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(untimedDeadline):
		return fmt.Errorf("%s passed its deadline of %v", name, untimedDeadline)
	}
}

// traceTimes are the traced run's shorter phases: 4, 2 and 2 s, less when
// the run's measuring time is short.
func traceTimes(seconds float64) phaseTimes {
	t := min(8, seconds/2)
	d := func(share float64) time.Duration { return time.Duration(t * share / 8 * float64(time.Second)) }
	return phaseTimes{rw: d(4), scan: d(2), ingest: d(2)}
}

// driveOps is the number of ops each layer drive replays.
func driveOps(scale string) int {
	if scale == "tiny" {
		return 1 << 14
	}
	return 1 << 19
}

func newTracerFor(o options) *tracer {
	if o.scale == "tiny" {
		return newTracer(1<<20, 1<<18)
	}
	return newTracer(6<<20, 1<<20)
}

// runTraced produces the per-layer metrics of one workload: the script with
// tracing off and on at the same shorter phases (their ratio is the tracing
// overhead), the same script on the mem stack at the workload's size (the
// base rung the workload's added cost is read against), and the layer
// drives.
func runTraced(o options, w, tmp string, tr *tracer) *workloadResult {
	short := spec(o, w, tmp)
	short.times, short.reps, short.verifyN = traceTimes(o.seconds), 1, 3*short.verifyN

	res := execute(short)
	traced := short
	traced.tracer = tr
	tres := execute(traced)
	base := res
	if w != stackMem {
		b := short
		b.stack = stackMem
		base = execute(b)
	}
	// The document's end-to-end numbers, windows and samples are the
	// untraced sub-run's; the traced sub-run supplies the counters, spans
	// and shares, and every sub-run's ops count.
	for _, sub := range []*workloadResult{tres, base} {
		if sub == res {
			continue
		}
		res.Attempted += sub.Attempted
		res.Failed += sub.Failed
		res.Correct = res.Correct && sub.Correct
		if res.FirstError == "" {
			res.FirstError = sub.FirstError
		}
	}
	res.Layers = tres.Layers
	L := res.Layers

	self := tr.selfTimes()
	res.SelfTime = map[string]selfTime{}
	for i, s := range self {
		if s.Spans > 0 {
			res.SelfTime[spanNames[i]] = s
		}
	}
	L["server.store_share_get"] = storeShare(self[spGet])
	L["server.store_share_put"] = storeShare(self[spPut], self[spDelete])
	L["server.store_share_scan"] = storeShare(self[spScanShort], self[spScanLong])
	L["trace.overhead_ratio"] = math.Sqrt(ratio(res.E2E["update_ops_s"], tres.E2E["update_ops_s"]) *
		ratio(res.E2E["get_ops_s"], tres.E2E["get_ops_s"]))

	d := &driver{ks: keyScheme{seed: o.seed, n: short.n}, stack: w, ops: driveOps(o.scale), tmp: tmp, tracer: tr, out: L}
	res.Attempted++
	if err := withDeadline("layer drives", d.run); err != nil {
		res.failStep(err)
	}
	ladder(w, L, res.E2E, base.E2E)
	L["trace.spans"] = float64(tr.count())

	path := o.traceOut
	if path == "" {
		path = filepath.Join(o.tmp, "trace-"+w+".jsonl")
	}
	if err := tr.writeSpans(path, w); err != nil {
		res.failStep(fmt.Errorf("span file: %w", err))
	} else {
		fmt.Printf("span file: %s\n", path)
	}
	res.E2E["failed_ops_ratio"] = float64(res.Failed) / float64(res.Attempted)
	return res
}

// ladder fills the rung differences: what the workload's stack adds to the
// mem stack on the identical script at the same size. Rungs of the other
// stacks stay 0 on this workload.
func ladder(w string, L, e, base metrics) {
	for _, d := range layerCatalog {
		if d.Source == srcDelta {
			L[d.Name] = 0
		}
	}
	perOp := func(name string) float64 { return 1e9/e[name] - 1e9/base[name] } // ns added per op
	slowdown := func(name string) float64 { return ratio(base[name], e[name]) }
	switch w {
	case stackCompressed:
		L["compressed.get_slowdown"] = slowdown("get_ops_s")
		L["compressed.scan_slowdown"] = slowdown("scan_pairs_s")
		L["compressed.update_slowdown"] = slowdown("update_ops_s")
		L["compressed.heap_ratio"] = ratio(e["heap_bytes_per_pair"], base["heap_bytes_per_pair"])
	case stackDurable:
		L["db.put_added_ns"] = perOp("update_ops_s")
		L["db.get_added_ns"] = perOp("get_ops_s")
		L["db.scan_added_ns_per_pair"] = perOp("scan_pairs_s")
		L["db.glue_put_ns"] = L["db.put_added_ns"] - L["persist.append_ns_per_rec"]
	case stackSharded:
		L["sharded.put_added_ns"] = perOp("update_ops_s")
		L["sharded.get_added_ns"] = perOp("get_ops_s")
		L["sharded.scan_slowdown"] = slowdown("scan_pairs_s")
		L["sharded.scan_short_added_us"] = e["scan_short_p50_us"] - base["scan_short_p50_us"]
		L["sharded.ingest_speedup"] = ratio(e["ingest_keys_s"], base["ingest_keys_s"])
	case stackServed:
		L["served.get_added_us"] = perOp("get_ops_s") / 1e3
		L["served.put_added_us"] = perOp("update_ops_s") / 1e3
		L["served.scan_added_ns_per_pair"] = perOp("scan_pairs_s")
	}
}

// printWorkload prints the human table of one workload.
func printWorkload(out io.Writer, w string, res *workloadResult, traced bool) {
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "\n== %s ==\tcorrect=%v\tattempted=%d\tfailed=%d\treached=%s\n", w, res.Correct, res.Attempted, res.Failed, res.PhaseReached)
	if res.FirstError != "" {
		fmt.Fprintf(tw, "first error:\t%s\n", res.FirstError)
	}
	row := func(d metricDef, v float64) {
		val := "n/a"
		if !math.IsNaN(v) {
			val = fmt.Sprintf("%.6g", v)
		}
		extra := ""
		if ws, ok := res.Windows[d.Name]; ok {
			extra = fmt.Sprintf("windows min %.6g max %.6g n=%d", ws.Min, ws.Max, ws.N)
		} else if si, ok := res.Samples[d.Name]; ok {
			extra = fmt.Sprintf("samples %d", si.N)
			if si.Percentile != 0 {
				extra += fmt.Sprintf(" (reported p%g: too few samples beyond p99)", si.Percentile*100)
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", d.Name, val, d.Unit, extra)
	}
	for _, d := range append(append([]metricDef{}, e2eCatalog...), compareCatalog...) {
		row(d, res.E2E[d.Name])
	}
	row(metricDef{Name: "failed_ops_ratio", Unit: "ratio"}, res.E2E["failed_ops_ratio"])
	if traced {
		fmt.Fprintf(tw, "-- per layer --\t\t\t\n")
	}
	for _, d := range layerCatalog {
		if v := res.Layers[d.Name]; traced || (d.Source == srcStats && !math.IsNaN(v)) {
			row(d, v)
		}
	}
	tw.Flush()
}

// contractMetric is one metric of the final line.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine prints the run's last line of standard output: one JSON
// object with the end-to-end metrics of an untraced run or the per-layer
// metrics of a traced one. A per-layer metric that does not apply to the
// workload reads 0.
func printContractLine(res *workloadResult, traced bool) {
	defs := e2eCatalog
	if traced {
		defs = perLayerCatalog()
	}
	m := map[string]contractMetric{}
	for _, d := range defs {
		v := res.value(d.Name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.Name] = contractMetric{Value: v, Unit: d.Unit}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": m,
	})
	fmt.Println(string(b))
}
