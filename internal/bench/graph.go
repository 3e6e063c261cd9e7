package bench

import (
	"time"

	"pmago"
	"pmago/internal/core"
	"pmago/internal/workload"
)

// GraphResult reports the Section 6 experiment: streaming edge updates into
// the CRS-on-PMA representation while analytics scan it.
type GraphResult struct {
	EdgesPerSec     float64 // edge insert/delete throughput
	NeighborsPerSec float64 // edges visited by concurrent neighbourhood scans per second
	PageRankTime    time.Duration
	FinalEdges      int
}

// RunGraph streams updates edge operations (1 delete per 5 inserts) over a
// power-law endpoint distribution with updThreads writers, while one
// analytics goroutine repeatedly expands neighbourhoods; finally a PageRank
// pass runs over the quiesced graph.
func RunGraph(updates, vertices, updThreads int, seed int64) GraphResult {
	g, err := pmago.NewGraph()
	if err != nil {
		panic(err)
	}
	defer g.Close()

	stop := make(chan struct{})
	visited := make(chan int64, 1)
	go func() {
		var n int64
		gen := workload.NewGenerator(workload.Zipf(1), int64(vertices), seed^0x5151)
		for {
			select {
			case <-stop:
				visited <- n
				return
			default:
			}
			g.Neighbors(uint32(gen.Next()-1), func(uint32, int64) bool {
				n++
				return true
			})
		}
	}()

	start := time.Now()
	per := updates / updThreads
	core.Fan(updThreads, updThreads, func(w int) error {
		gen := workload.NewGenerator(workload.Zipf(1), int64(vertices), seed+int64(w))
		for i := 0; i < per; i++ {
			src := uint32(gen.Next() - 1)
			dst := uint32(gen.Next() - 1)
			if i%6 == 5 {
				g.DeleteEdge(src, dst)
			} else {
				g.AddEdge(src, dst, 1)
			}
		}
		return nil
	})
	g.Flush()
	wall := time.Since(start)
	close(stop)
	scanned := <-visited

	prStart := time.Now()
	g.PageRank(3, 0.85)
	return GraphResult{
		EdgesPerSec:     float64(updates) / wall.Seconds(),
		NeighborsPerSec: float64(scanned) / wall.Seconds(),
		PageRankTime:    time.Since(prStart),
		FinalEdges:      g.EdgeCount(),
	}
}
