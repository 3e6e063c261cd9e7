package obs

// ServerMetrics instruments the network serving layer (pmago/server): one
// set per Server, feeding the Server section of the snapshot its Stats
// endpoint and side HTTP handler expose. Like every other metric set it is
// hot-path cheap — striped counter increments and lock-free histogram
// observes.
type ServerMetrics struct {
	// Per-op request counters, indexed by ServerOp. Handling latency per
	// op is the trace section's Total window (TraceMetrics).
	Requests [NumServerOps]Counter

	// ConnsOpened/ConnsClosed count accepted and finished connections
	// (opened - closed = currently live). BytesRead/BytesWritten count
	// framed wire bytes in both directions.
	ConnsOpened  Counter
	ConnsClosed  Counter
	BytesRead    Counter
	BytesWritten Counter

	// Busy counts requests rejected with an explicit busy response by the
	// bounded in-flight queues; Errors counts error responses (bad frames
	// excluded — those kill the connection).
	Busy   Counter
	Errors Counter

	// ScanChunks counts streamed scan chunk frames; ScanCancels counts
	// scans stopped early by client cancel or disconnect.
	ScanChunks  Counter
	ScanCancels Counter

	// CommitOps observes how many client write ops each committer drain
	// coalesced (the cross-client group-commit batch size — >1 means
	// clients shared an fsync; its count is the number of drains), and
	// CommitKeys the keys in the consolidated PutBatch each drain issued.
	CommitOps  Histogram
	CommitKeys Histogram
}

// ServerOp indexes the per-op arrays of ServerMetrics.
type ServerOp int

const (
	ServerOpPut ServerOp = iota
	ServerOpGet
	ServerOpDelete
	ServerOpPutBatch
	ServerOpDeleteBatch
	ServerOpScan
	ServerOpStats
	NumServerOps
)

// ServerOpNames maps ServerOp to its stable metric label.
var ServerOpNames = [NumServerOps]string{
	"put", "get", "delete", "put_batch", "delete_batch", "scan", "stats",
}

// ServerOpSnapshot is one op's section of a server snapshot.
type ServerOpSnapshot struct {
	Op       string `json:"op"`
	Requests uint64 `json:"requests"`
}

// ServerSnapshot is the serving-layer section of a snapshot.
type ServerSnapshot struct {
	ConnsOpened  uint64             `json:"conns_opened"`
	ConnsClosed  uint64             `json:"conns_closed"`
	BytesRead    uint64             `json:"bytes_read"`
	BytesWritten uint64             `json:"bytes_written"`
	Busy         uint64             `json:"busy"`
	Errors       uint64             `json:"errors"`
	ScanChunks   uint64             `json:"scan_chunks"`
	ScanCancels  uint64             `json:"scan_cancels"`
	CommitOps    Distribution       `json:"commit_ops"`
	CommitKeys   Distribution       `json:"commit_keys"`
	Ops          []ServerOpSnapshot `json:"ops"`
}

// Snapshot copies the live counters.
func (m *ServerMetrics) Snapshot() *ServerSnapshot {
	s := &ServerSnapshot{
		ConnsOpened:  m.ConnsOpened.Load(),
		ConnsClosed:  m.ConnsClosed.Load(),
		BytesRead:    m.BytesRead.Load(),
		BytesWritten: m.BytesWritten.Load(),
		Busy:         m.Busy.Load(),
		Errors:       m.Errors.Load(),
		ScanChunks:   m.ScanChunks.Load(),
		ScanCancels:  m.ScanCancels.Load(),
		CommitOps:    m.CommitOps.Snapshot(),
		CommitKeys:   m.CommitKeys.Snapshot(),
		Ops:          make([]ServerOpSnapshot, NumServerOps),
	}
	for i := range s.Ops {
		s.Ops[i] = ServerOpSnapshot{
			Op:       ServerOpNames[i],
			Requests: m.Requests[i].Load(),
		}
	}
	return s
}
