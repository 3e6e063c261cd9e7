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
