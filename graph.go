package pmago

import (
	"fmt"

	"pmago/internal/core"
)

// Graph is a concurrent directed graph with int64 edge weights, stored
// CRS-style in packed memory arrays (Section 6 of the paper). Every edge
// (src, dst) is one element of the edge array keyed src<<32|dst, so a
// vertex's outgoing edges are contiguous in key order and a neighbourhood
// expansion is one range scan — the O(1)-per-edge navigation of dense CRS,
// on an updatable structure. The vertex set lives in a second sparse array
// (one of the options the paper sketches), keyed by vertex id.
//
// The paper's variant maintains explicit offsets V[v] into the edge array
// under the corresponding gate's latch; with the keyed representation the
// offset maintenance disappears (the entry point is found through the static
// index in O(log_B E)) while navigation inside the adjacency stays
// sequential, which preserves the property the design argues for.
//
// Vertex ids must not exceed MaxVertex. All methods are safe for concurrent
// use; Close releases the arrays' service goroutines.
type Graph struct {
	edges *core.PMA
	verts *core.PMA
}

// MaxVertex is the largest usable vertex identifier: packed edge keys must
// stay positive int64s.
const MaxVertex = 1<<31 - 1

// NewGraph creates an empty graph whose underlying PMAs use the paper's
// defaults modified by the given options. Durability and sharding options
// are rejected: a graph is one in-memory pair of arrays.
func NewGraph(opts ...Option) (*Graph, error) {
	cfg, err := resolveOptions("NewGraph", opts, false, false)
	if err != nil {
		return nil, err
	}
	e, err := core.New(cfg.core)
	if err != nil {
		return nil, err
	}
	v, err := core.New(cfg.core)
	if err != nil {
		e.Close()
		return nil, err
	}
	return &Graph{edges: e, verts: v}, nil
}

// Close stops the service goroutines of the underlying arrays.
func (g *Graph) Close() {
	g.edges.Close()
	g.verts.Close()
}

func edgeKey(src, dst uint32) int64 {
	return int64(src)<<32 | int64(dst)
}

func checkVertex(v uint32) {
	if v > MaxVertex {
		panic(fmt.Sprintf("pmago: vertex id %d exceeds MaxVertex", v))
	}
}

// AddVertex registers a vertex (edges register their endpoints
// automatically).
func (g *Graph) AddVertex(v uint32) {
	checkVertex(v)
	g.verts.Put(int64(v), 0)
}

// HasVertex reports whether v is registered.
func (g *Graph) HasVertex(v uint32) bool {
	_, ok := g.verts.Get(int64(v))
	return ok
}

// AddEdge inserts or updates the directed edge src -> dst, registering both
// endpoints.
func (g *Graph) AddEdge(src, dst uint32, weight int64) {
	checkVertex(src)
	checkVertex(dst)
	g.verts.Put(int64(src), 0)
	g.verts.Put(int64(dst), 0)
	g.edges.Put(edgeKey(src, dst), weight)
}

// DeleteEdge removes an edge, reporting whether it was present (the
// endpoints stay registered).
func (g *Graph) DeleteEdge(src, dst uint32) bool {
	return g.edges.Delete(edgeKey(src, dst))
}

// Edge returns the weight of src -> dst.
func (g *Graph) Edge(src, dst uint32) (int64, bool) {
	return g.edges.Get(edgeKey(src, dst))
}

// Neighbors visits dst and weight for every outgoing edge of src in
// ascending dst order, until fn returns false. This is one PMA range scan:
// sequential memory traversal within the adjacency.
func (g *Graph) Neighbors(src uint32, fn func(dst uint32, weight int64) bool) {
	lo := edgeKey(src, 0)
	hi := edgeKey(src, ^uint32(0))
	g.edges.Scan(lo, hi, func(k, w int64) bool {
		return fn(uint32(k&0xFFFFFFFF), w)
	})
}

// OutDegree counts src's outgoing edges.
func (g *Graph) OutDegree(src uint32) int {
	n := 0
	g.Neighbors(src, func(uint32, int64) bool { n++; return true })
	return n
}

// EdgeCount returns the number of edges (call Flush first for exactness
// under asynchronous updates).
func (g *Graph) EdgeCount() int { return g.edges.Len() }

// VertexCount returns the number of registered vertices.
func (g *Graph) VertexCount() int { return g.verts.Len() }

// Vertices visits every registered vertex in ascending id order.
func (g *Graph) Vertices(fn func(v uint32) bool) {
	g.verts.ScanAll(func(k, _ int64) bool { return fn(uint32(k)) })
}

// Edges visits every edge in (src, dst) order.
func (g *Graph) Edges(fn func(src, dst uint32, weight int64) bool) {
	g.edges.ScanAll(func(k, w int64) bool {
		return fn(uint32(k>>32), uint32(k&0xFFFFFFFF), w)
	})
}

// Flush applies pending asynchronous updates on both arrays.
func (g *Graph) Flush() {
	g.edges.Flush()
	g.verts.Flush()
}

// Stats returns the edge array's metrics snapshot (the durable sections stay
// zero — graphs are in-memory).
func (g *Graph) Stats() Stats { return Stats{CoreSnapshot: g.edges.Stats()} }

// BFS returns the hop distance from src for every reachable vertex.
func (g *Graph) BFS(src uint32) map[uint32]int {
	dist := map[uint32]int{src: 0}
	frontier := []uint32{src}
	for len(frontier) > 0 {
		var next []uint32
		for _, u := range frontier {
			du := dist[u]
			g.Neighbors(u, func(v uint32, _ int64) bool {
				if _, seen := dist[v]; !seen {
					dist[v] = du + 1
					next = append(next, v)
				}
				return true
			})
		}
		frontier = next
	}
	return dist
}

// PageRank runs the given number of power iterations with damping d over
// the current snapshot of the graph, scanning the edge array once per
// iteration (the analytics pattern the paper targets: full sequential scans
// concurrent with updates).
func (g *Graph) PageRank(iters int, d float64) map[uint32]float64 {
	var verts []uint32
	g.Vertices(func(v uint32) bool { verts = append(verts, v); return true })
	n := len(verts)
	if n == 0 {
		return nil
	}
	rank := make(map[uint32]float64, n)
	deg := make(map[uint32]int, n)
	for _, v := range verts {
		rank[v] = 1 / float64(n)
	}
	g.Edges(func(src, _ uint32, _ int64) bool {
		deg[src]++
		return true
	})
	for it := 0; it < iters; it++ {
		contrib := make(map[uint32]float64, n)
		dangling := 0.0
		for _, v := range verts {
			if deg[v] == 0 {
				dangling += rank[v]
			}
		}
		// One sequential pass over the whole edge array.
		g.Edges(func(src, dst uint32, _ int64) bool {
			contrib[dst] += rank[src] / float64(deg[src])
			return true
		})
		base := (1-d)/float64(n) + d*dangling/float64(n)
		next := make(map[uint32]float64, n)
		for _, v := range verts {
			next[v] = base + d*contrib[v]
		}
		rank = next
	}
	return rank
}
