package obs

// ClientMetrics instruments pmago/client: the mirror image of the server's
// trace section, measured from the caller's side of the wire. QueueWait is
// the send-side stage (connection checkout + frame write — where pool
// contention and a slow socket show up); RTT is request-written →
// final-response-received per op, so RTT − server total ≈ network + the
// server's inbound read queue. Same cost contract as every other metric
// set: striped counters and window observes, no allocation.
type ClientMetrics struct {
	Requests [NumServerOps]Counter
	Busy     Counter
	Timeouts Counter
	Errors   Counter
	Dials    Counter

	QueueWait Window
	RTT       [NumServerOps]Window
}

// ClientOpSnapshot is one op's section of a client snapshot.
type ClientOpSnapshot struct {
	Op       string         `json:"op"`
	Requests uint64         `json:"requests"`
	RTT      WindowSnapshot `json:"rtt"`
}

// ClientSnapshot is the client-side latency snapshot.
type ClientSnapshot struct {
	Busy      uint64             `json:"busy"`
	Timeouts  uint64             `json:"timeouts"`
	Errors    uint64             `json:"errors"`
	Dials     uint64             `json:"dials"`
	QueueWait WindowSnapshot     `json:"queue_wait"`
	Ops       []ClientOpSnapshot `json:"ops"`
}

// Snapshot copies the live counters.
func (m *ClientMetrics) Snapshot() ClientSnapshot {
	s := ClientSnapshot{
		Busy:      m.Busy.Load(),
		Timeouts:  m.Timeouts.Load(),
		Errors:    m.Errors.Load(),
		Dials:     m.Dials.Load(),
		QueueWait: m.QueueWait.Snapshot(),
		Ops:       make([]ClientOpSnapshot, NumServerOps),
	}
	for i := range s.Ops {
		s.Ops[i] = ClientOpSnapshot{
			Op:       ServerOpNames[i],
			Requests: m.Requests[i].Load(),
			RTT:      m.RTT[i].Snapshot(),
		}
	}
	return s
}
