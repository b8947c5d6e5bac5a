package core

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestRunSyntheticHeadlineNumbers(t *testing.T) {
	res, err := RunSynthetic(784, 10, 21)
	if err != nil {
		t.Fatal(err)
	}
	// ~1% determination of gA (the paper's headline precision).
	if res.FH.Precision() > 1.5 {
		t.Fatalf("FH precision %.2f%%, paper achieves ~1%%", res.FH.Precision())
	}
	// FH beats traditional despite 10x fewer samples.
	if res.FH.Err >= res.Trad.Err {
		t.Fatalf("FH error %v not below traditional %v", res.FH.Err, res.Trad.Err)
	}
	// The effective statistical speed-up is an order of magnitude or more.
	if res.SpeedupFactor() < 10 {
		t.Fatalf("speed-up factor %.1f, expected >= 10", res.SpeedupFactor())
	}
	// Lifetime lands in the experimentally relevant window.
	if res.TauSeconds < 820 || res.TauSeconds > 950 {
		t.Fatalf("tau_n = %v s", res.TauSeconds)
	}
	if res.TauErr <= 0 {
		t.Fatal("no lifetime uncertainty")
	}
	if len(res.TradPoints) == 0 {
		t.Fatal("no traditional points for the figure")
	}
}

func TestRunSyntheticDeterministic(t *testing.T) {
	a, err := RunSynthetic(120, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSynthetic(120, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.FH.GA != b.FH.GA || a.Trad.GA != b.Trad.GA {
		t.Fatal("synthetic campaign not deterministic")
	}
}

func TestRunRealProducesFiniteCurves(t *testing.T) {
	cfg := DefaultRealConfig()
	cfg.Dims = [4]int{2, 2, 2, 6}
	cfg.NConfigs = 3
	cfg.ThermSweeps = 3
	cfg.GapSweeps = 1
	res, err := RunReal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.C2) != 3 || len(res.CFH) != 3 {
		t.Fatalf("correlators: %d/%d", len(res.C2), len(res.CFH))
	}
	if res.SolvesPerConfig != 24 {
		t.Fatalf("solves per config %d; FH costs one extra propagator (12+12)", res.SolvesPerConfig)
	}
	if len(res.Geff) == 0 || len(res.Geff) != len(res.GeffErr) {
		t.Fatal("g_eff curve missing")
	}
	for i, v := range res.Geff {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("g_eff[%d] = %v", i, v)
		}
	}
	// Proton two-point positive in the physical window.
	for _, c2 := range res.C2 {
		for tt := 1; tt <= 2; tt++ {
			if c2[tt] <= 0 {
				t.Fatalf("C2(%d) = %g", tt, c2[tt])
			}
		}
	}
}

// TestRunRealRejectsTooFewConfigs: the jackknife needs two
// configurations, so every pipeline entry point refuses fewer with an
// error (instead of panicking after the solves).
func TestRunRealRejectsTooFewConfigs(t *testing.T) {
	runs := map[string]func(RealConfig) error{
		"RunReal": func(cfg RealConfig) error {
			_, err := RunReal(cfg)
			return err
		},
		"RunRealCached": func(cfg RealConfig) error {
			_, err := RunRealCached(cfg, nil)
			return err
		},
		"RunRealConcurrent": func(cfg RealConfig) error {
			_, _, err := RunRealConcurrent(context.Background(), cfg, 2)
			return err
		},
		"RunRealConcurrentObs": func(cfg RealConfig) error {
			_, _, err := RunRealConcurrentObs(context.Background(), cfg, 2, ObsConfig{})
			return err
		},
		"RunRealConcurrentCached": func(cfg RealConfig) error {
			_, _, err := RunRealConcurrentCached(context.Background(), cfg, 2, ObsConfig{}, nil)
			return err
		},
	}
	for name, run := range runs {
		for _, n := range []int{0, 1} {
			cfg := DefaultRealConfig()
			cfg.NConfigs = n
			err := run(cfg)
			if err == nil || !strings.Contains(err.Error(), "need >= 2") {
				t.Errorf("%s with NConfigs=%d: err = %v, want a need >= 2 error", name, n, err)
			}
		}
	}
}

func TestTimeToSolutionScaling(t *testing.T) {
	// Halving the target error requires 4x the samples.
	n1 := TimeToSolution(0.01, 100, 0.01)
	n2 := TimeToSolution(0.01, 100, 0.005)
	if math.Abs(n1-100) > 1e-9 || math.Abs(n2-400) > 1e-9 {
		t.Fatalf("scaling wrong: %v %v", n1, n2)
	}
	if TimeToSolution(0.01, 100, 0) != 0 {
		t.Fatal("degenerate target")
	}
}
