package pmago

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func newTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraph(WithSegmentCapacity(16), withSegmentsPerGate(2), WithTDelay(0), withWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func TestGraphEdgesAndVertices(t *testing.T) {
	g := newTestGraph(t)
	g.AddEdge(1, 2, 10)
	g.AddEdge(1, 3, 11)
	g.AddEdge(2, 3, 12)
	g.Flush()
	if g.EdgeCount() != 3 {
		t.Fatalf("EdgeCount = %d", g.EdgeCount())
	}
	if g.VertexCount() != 3 {
		t.Fatalf("VertexCount = %d", g.VertexCount())
	}
	if w, ok := g.Edge(1, 3); !ok || w != 11 {
		t.Fatalf("Edge(1,3) = %d,%v", w, ok)
	}
	if _, ok := g.Edge(3, 1); ok {
		t.Fatal("phantom reverse edge")
	}
	if !g.DeleteEdge(1, 3) || g.DeleteEdge(1, 3) {
		t.Fatal("delete semantics wrong")
	}
	g.Flush()
	if g.EdgeCount() != 2 {
		t.Fatalf("EdgeCount after delete = %d", g.EdgeCount())
	}
	if !g.HasVertex(3) {
		t.Fatal("vertex 3 lost after edge delete")
	}
}

func TestGraphNeighborsSortedAndScoped(t *testing.T) {
	g := newTestGraph(t)
	// Adjacent sources with interleaved insertion order.
	for _, dst := range []uint32{9, 3, 7, 1, 5} {
		g.AddEdge(10, dst, int64(dst))
	}
	g.AddEdge(9, 100, 1)  // predecessor source
	g.AddEdge(11, 200, 1) // successor source
	g.Flush()
	var got []uint32
	g.Neighbors(10, func(d uint32, w int64) bool {
		if w != int64(d) {
			t.Fatalf("weight mismatch at %d", d)
		}
		got = append(got, d)
		return true
	})
	want := []uint32{1, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("neighbors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors[%d] = %d", i, got[i])
		}
	}
	if g.OutDegree(10) != 5 || g.OutDegree(9) != 1 || g.OutDegree(42) != 0 {
		t.Fatal("degrees wrong")
	}
}

func TestGraphEdgeKeyBoundaries(t *testing.T) {
	g := newTestGraph(t)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, MaxVertex, 2)
	g.AddEdge(MaxVertex, MaxVertex, 3)
	g.Flush()
	if w, ok := g.Edge(0, MaxVertex); !ok || w != 2 {
		t.Fatal("max-dst edge lost")
	}
	if w, ok := g.Edge(MaxVertex, MaxVertex); !ok || w != 3 {
		t.Fatal("max-vertex edge lost")
	}
	count := 0
	g.Neighbors(0, func(uint32, int64) bool { count++; return true })
	if count != 2 {
		t.Fatalf("Neighbors(0) = %d edges", count)
	}
}

func TestGraphVertexLimitPanics(t *testing.T) {
	g := newTestGraph(t)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized vertex did not panic")
		}
	}()
	g.AddEdge(MaxVertex+1, 0, 1)
}

func TestGraphBFS(t *testing.T) {
	g := newTestGraph(t)
	// 0 -> 1 -> 2 -> 3, plus shortcut 0 -> 2, island 9.
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 2, 1)
	g.AddVertex(9)
	g.Flush()
	dist := g.BFS(0)
	want := map[uint32]int{0: 0, 1: 1, 2: 1, 3: 2}
	if len(dist) != len(want) {
		t.Fatalf("BFS reached %v", dist)
	}
	for v, d := range want {
		if dist[v] != d {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], d)
		}
	}
}

func TestGraphPageRankStar(t *testing.T) {
	g := newTestGraph(t)
	// Hub 0 pointed at by 1..5: PageRank must rank 0 highest.
	for v := uint32(1); v <= 5; v++ {
		g.AddEdge(v, 0, 1)
	}
	g.AddEdge(0, 1, 1)
	g.Flush()
	pr := g.PageRank(20, 0.85)
	if len(pr) != 6 {
		t.Fatalf("%d ranks", len(pr))
	}
	for v := uint32(1); v <= 5; v++ {
		if pr[0] <= pr[v] {
			t.Fatalf("hub rank %f not above spoke %d (%f)", pr[0], v, pr[v])
		}
	}
	sum := 0.0
	for _, r := range pr {
		sum += r
	}
	if math.Abs(sum-1) > 0.01 {
		t.Fatalf("ranks sum to %f", sum)
	}
}

func TestGraphConcurrentUpdatesWithAnalytics(t *testing.T) {
	g := newTestGraph(t)
	const vertices = 200
	stop := make(chan struct{})
	var analytics sync.WaitGroup
	analytics.Add(1)
	go func() {
		defer analytics.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			g.BFS(0)
			g.PageRank(2, 0.85)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5_000; i++ {
				src := uint32(rng.Intn(vertices))
				dst := uint32(rng.Intn(vertices))
				if rng.Intn(4) == 0 {
					g.DeleteEdge(src, dst)
				} else {
					g.AddEdge(src, dst, 1)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	analytics.Wait()
	g.Flush()
	// Every edge's endpoints must be registered vertices.
	ok := true
	g.Edges(func(src, dst uint32, _ int64) bool {
		if !g.HasVertex(src) || !g.HasVertex(dst) {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		t.Fatal("edge with unregistered endpoint")
	}
}
