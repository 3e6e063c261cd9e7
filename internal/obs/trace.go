package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
)

// The request-path trace section: per-op, per-stage sliding-window latency
// attribution for the serving pipeline, plus the slow-op flight recorder.
// pmago/server owns one TraceMetrics per Server and stamps each request at
// its stage boundaries; the stages partition the request's total handling
// time, so windowed stage sums ≈ windowed totals and a p99 spike can be
// attributed to the stage that produced it.

// TraceStage indexes the per-stage windows of TraceMetrics. The stages
// partition a request's life from frame decode to response enqueue:
//
//	StageDecode     frame payload → decoded, validated request
//	StageQueue      write dispatched → drained off the commit queue
//	StageCommitWait drained → the group-commit store call begins
//	StageApply      the store call (WAL append + fsync + apply inside)
//	StageRespond    store call returned → response frame enqueued
//
// Reads skip queue and commit-wait (they execute inline, both stages read
// 0). WAL append and fsync time lives inside StageApply; the WAL's own
// AppendWindow (waits for the log) and FsyncWindow (WALMetrics) attribute
// it store-side, which also covers embedded users that never cross the
// serving layer.
type TraceStage int

const (
	StageDecode TraceStage = iota
	StageQueue
	StageCommitWait
	StageApply
	StageRespond
	NumTraceStages
)

// TraceStageNames maps TraceStage to its stable metric label.
var TraceStageNames = [NumTraceStages]string{
	"decode", "queue", "commit_wait", "apply", "respond",
}

// TraceMetrics is the serving layer's trace section: sliding-window
// latency per op (Total), per op and stage (Stages), the outbound writer's
// per-burst flush latency (Flush), and the slow-op flight recorder (Slow).
type TraceMetrics struct {
	Stages [NumServerOps][NumTraceStages]Window
	Total  [NumServerOps]Window
	Flush  Window
	Slow   SlowRing
}

// Record attributes one answered request: its stage breakdown and total
// into the op's windows, all at the same clock reading so every window
// agrees on the slot. Allocation-free.
func (m *TraceMetrics) Record(op ServerOp, now int64, stages *[NumTraceStages]uint64, total uint64) {
	if op < 0 || op >= NumServerOps {
		return
	}
	for i := range stages {
		m.Stages[op][i].ObserveAt(now, stages[i])
	}
	m.Total[op].ObserveAt(now, total)
}

// TraceStageSnapshot is one stage's window in a trace snapshot.
type TraceStageSnapshot struct {
	Stage  string         `json:"stage"`
	Window WindowSnapshot `json:"window"`
}

// TraceOpSnapshot is one op's section of a trace snapshot.
type TraceOpSnapshot struct {
	Op     string               `json:"op"`
	Total  WindowSnapshot       `json:"total"`
	Stages []TraceStageSnapshot `json:"stages"`
}

// TraceSnapshot is the request-path tracing section of a snapshot, present
// only on snapshots taken through a pmago/server.Server.
type TraceSnapshot struct {
	Ops   []TraceOpSnapshot `json:"ops"`
	Flush WindowSnapshot    `json:"flush"`
}

// Snapshot folds every window.
func (m *TraceMetrics) Snapshot() *TraceSnapshot {
	t := &TraceSnapshot{Ops: make([]TraceOpSnapshot, NumServerOps)}
	for op := range t.Ops {
		o := TraceOpSnapshot{
			Op:     ServerOpNames[op],
			Total:  m.Total[op].Snapshot(),
			Stages: make([]TraceStageSnapshot, NumTraceStages),
		}
		for st := range o.Stages {
			o.Stages[st] = TraceStageSnapshot{
				Stage:  TraceStageNames[st],
				Window: m.Stages[op][st].Snapshot(),
			}
		}
		t.Ops[op] = o
	}
	t.Flush = m.Flush.Snapshot()
	return t
}

// SlowOp is one captured request in the slow-op flight recorder: which op,
// when it finished, its total handling time, and the full stage breakdown.
// Sampled marks records captured by the uniform 1-in-N sampler rather than
// the slow threshold.
type SlowOp struct {
	Op         string
	UnixNanos  int64
	TotalNanos uint64
	Stages     [NumTraceStages]uint64
	Sampled    bool
}

// MarshalJSON renders the stage array under its stage names, so the /slow
// dump is self-describing ("decode_nanos": ..., "apply_nanos": ...).
func (o SlowOp) MarshalJSON() ([]byte, error) {
	m := make(map[string]any, NumTraceStages+4)
	m["op"] = o.Op
	m["unix_nanos"] = o.UnixNanos
	m["total_nanos"] = o.TotalNanos
	for i, v := range o.Stages {
		m[TraceStageNames[i]+"_nanos"] = v
	}
	if o.Sampled {
		m["sampled"] = true
	}
	return json.Marshal(m)
}

// slowRingSize bounds the flight recorder: big enough that a burst of slow
// requests keeps minutes of history at realistic slow rates, small enough
// that the ring lives happily inside TraceMetrics.
const slowRingSize = 256

// slowSlot holds one record behind a tiny mutex: writers TryLock and drop
// on contention (the hot path never blocks), the dumper locks each slot for
// one struct copy.
type slowSlot struct {
	mu  sync.Mutex
	set bool
	rec SlowOp
}

// SlowRing is the bounded slow-op flight recorder: a lock-light ring that
// keeps the most recent slowRingSize captures. Record is allocation-free
// and never blocks — a writer racing the dumper (or a lapping writer) on
// the same slot drops its record, which costs one entry of history, not
// latency. The zero value is ready to use.
type SlowRing struct {
	next  atomic.Uint64
	slots [slowRingSize]slowSlot
}

// Record captures one slow (or sampled) op.
func (r *SlowRing) Record(rec SlowOp) {
	s := &r.slots[(r.next.Add(1)-1)%slowRingSize]
	if !s.mu.TryLock() {
		return
	}
	s.rec, s.set = rec, true
	s.mu.Unlock()
}

// Dump copies the captured records out, newest first.
func (r *SlowRing) Dump() []SlowOp {
	out := make([]SlowOp, 0, slowRingSize)
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.set {
			out = append(out, s.rec)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UnixNanos > out[j].UnixNanos })
	return out
}
