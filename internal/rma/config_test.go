package rma

import "testing"

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SegmentCapacity: 3, RhoRoot: 0.7, TauRoot: 0.7, TauLeaf: 1},
		{SegmentCapacity: 6, RhoRoot: 0.7, TauRoot: 0.7, TauLeaf: 1},
		{SegmentCapacity: 8, RhoLeaf: 0.9, RhoRoot: 0.7, TauRoot: 0.7, TauLeaf: 1},
		{SegmentCapacity: 8, RhoLeaf: 0.1, RhoRoot: 0.7, TauRoot: 0.6, TauLeaf: 1},
		{SegmentCapacity: 8, RhoLeaf: 0.1, RhoRoot: 0.5, TauRoot: 0.6, TauLeaf: 1.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated unexpectedly: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := TheoreticalConfig().Validate(); err != nil {
		t.Errorf("theoretical config invalid: %v", err)
	}
}

func TestThresholdInterpolation(t *testing.T) {
	cfg := TheoreticalConfig()
	// h=3 reproduces the labels of Figure 1a: rho2=0.625, tau2=0.875,
	// rho3=tau3=0.75.
	rho2, tau2 := cfg.thresholds(2, 3)
	if rho2 != 0.625 || tau2 != 0.875 {
		t.Fatalf("level-2 thresholds = %v,%v want 0.625,0.875", rho2, tau2)
	}
	rho3, tau3 := cfg.thresholds(3, 3)
	if rho3 != 0.75 || tau3 != 0.75 {
		t.Fatalf("root thresholds = %v,%v want 0.75,0.75", rho3, tau3)
	}
	rho1, tau1 := cfg.thresholds(1, 3)
	if rho1 != 0.5 || tau1 != 1.0 {
		t.Fatalf("leaf thresholds = %v,%v want 0.5,1.0", rho1, tau1)
	}
	// Single-segment tree falls back to root thresholds.
	r, ta := cfg.thresholds(1, 1)
	if r != cfg.RhoRoot || ta != cfg.TauRoot {
		t.Fatalf("h=1 thresholds = %v,%v", r, ta)
	}
}
