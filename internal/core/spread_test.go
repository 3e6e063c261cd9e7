package core

import (
	"slices"
	"testing"
)

// TestFigure1Counts pins the rebalance outcomes of the paper's Figure 1 on
// the two spread policies. The example array holds
//
//	[10 11 12 13] [20 21 22 _] [30 _ _ _] [40 41 42 43]
//
// and is rebalanced as a whole. Figure 1b is the traditional outcome: three
// elements per segment. The adaptive policy, given wider segments to have
// slack to place and a predictor that saw the recent inserts hammer the
// keys around 40, must instead leave more gaps at that end than at the cold
// one while keeping every element and a free slot per segment.
func TestFigure1Counts(t *testing.T) {
	ks := []int64{10, 11, 12, 13, 20, 21, 22, 30, 40, 41, 42, 43}
	if got, want := evenCounts(len(ks), 4), []int{3, 3, 3, 3}; !slices.Equal(got, want) {
		t.Fatalf("evenCounts = %v, want %v (Figure 1b)", got, want)
	}
	if got, want := evenCounts(14, 4), []int{4, 4, 3, 3}; !slices.Equal(got, want) {
		t.Fatalf("evenCounts = %v, want %v (remainder goes left)", got, want)
	}

	pr := newPredictor(8)
	for _, k := range []int64{40, 41, 42, 43, 41, 42} {
		pr.record(k)
	}
	const b = 8
	got := pr.adaptiveCounts(ks, 4, b)
	sum := 0
	for s, c := range got {
		if c < 0 || c > b-1 {
			t.Fatalf("segment %d gets %d elements, outside [0,%d]: %v", s, c, b-1, got)
		}
		sum += c
	}
	if sum != len(ks) {
		t.Fatalf("adaptiveCounts %v places %d elements, want %d", got, sum, len(ks))
	}
	if got[3] >= got[0] {
		t.Fatalf("adaptiveCounts %v: the hot last segment must receive fewer elements than the cold first", got)
	}
	// With no recorded insertion in range the policy has nothing to skew by.
	if cold := newPredictor(8).adaptiveCounts(ks, 4, b); !slices.Equal(cold, []int{3, 3, 3, 3}) {
		t.Fatalf("cold adaptiveCounts = %v, want the even spread", cold)
	}
}

// TestAdaptiveSpreadFedByInserts drives the adaptive policy end to end: a
// gate of cold bulk-loaded keys takes ascending point inserts at its top
// until its last segment is full and the next insert rebalances the smallest
// window around it. In ModeOneByOne every insert fed the gate's predictor,
// so the spread leaves the hot segment more gaps than the even spread would;
// ModeSync and ModeBatch gates carry no predictor and spread evenly.
func TestAdaptiveSpreadFedByInserts(t *testing.T) {
	for _, mode := range allModes() {
		cfg := testConfig(mode)
		cfg.SegmentCapacity, cfg.SegmentsPerGate = 32, 4
		keys, vals := make([]int64, 64), make([]int64, 64)
		for i := range keys {
			keys[i] = int64(i) * 1000
		}
		p, err := BulkLoad(cfg, keys, vals)
		if err != nil {
			t.Fatal(err)
		}
		st := p.state.Load()
		if len(st.gates) != 1 {
			t.Fatalf("%v: test geometry changed: %d gates", mode, len(st.gates))
		}
		g := st.gates[0]
		if (g.pred != nil) != (mode == ModeOneByOne) {
			t.Fatalf("%v: predictor %v, want one only in ModeOneByOne", mode, g.pred)
		}
		k := keys[len(keys)-1]
		for p.Stats().Rebalance.Local == 0 {
			k++
			s := g.findSeg(k)
			ws, we, ok := g.localWindow(st, s, s, 1)
			if !ok || s != g.spg-1 {
				t.Fatalf("%v: key %d lands in segment %d, window ok %v", mode, k, s, ok)
			}
			p.Put(k, k)
			if p.Stats().Rebalance.Local == 0 {
				continue
			}
			got, total := g.segCard[ws:we], 0
			for _, c := range got {
				total += c
			}
			even := evenCounts(total, we-ws)
			if mode == ModeOneByOne && got[s-ws] >= even[s-ws] {
				t.Errorf("%v: window %d-%d spread %v, no more gaps in hot segment %d than the even %v", mode, ws, we, got, s, even)
			}
			if mode != ModeOneByOne && !slices.Equal(got, even) {
				t.Errorf("%v: window %d-%d spread %v, want the even %v", mode, ws, we, got, even)
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		p.Close()
	}
}
