package core

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"femtoverse/internal/cache"
	"femtoverse/internal/obs"
)

// solveCounters are the campaign counters the column graph must account
// exactly as the sequential driver does.
var solveCounters = []string{"core.configs_solved", "core.solver_iterations", "core.solver_flops"}

// columnSpec is a cheaper campaign than campaignSpec - a shorter time
// extent, Ls = 2 and a looser tolerance - so the column tests stay
// affordable in the race-detector sweep of this package.
func columnSpec() RealConfig {
	spec := campaignSpec()
	spec.Dims = [4]int{2, 2, 2, 4}
	spec.Params.Ls = 2
	spec.Tol = 1e-6
	return spec
}

func counterValues(reg *obs.Registry) map[string]int64 {
	m := map[string]int64{}
	for _, name := range solveCounters {
		m[name] = reg.Counter(name).Value()
	}
	return m
}

// TestColumnGraphUnevenMatchesRunBatch runs the column task graph on
// campaigns that do not divide evenly over the solve workers - 3
// configurations on 2 workers, 5 on 4 - and requires the sequential
// RunBatch's correlators bit for bit, its solver-work counters exactly
// and its precision-escalation restarts.
func TestColumnGraphUnevenMatchesRunBatch(t *testing.T) {
	spec := columnSpec()
	spec.NConfigs = 5
	// The sequential reference in two batches, 3 then 2, so the first
	// batch's counters are the 3-configuration campaign's.
	ref := NewCampaign(spec)
	want := map[int]map[string]int64{}
	wantRestarts := map[int]int{}
	for _, n := range []int{3, 5} {
		reg := obs.NewRegistry()
		ref.Obs = ObsConfig{Metrics: reg}
		done, r, err := ref.runBatch(n-ref.Done(), nil)
		if err != nil || ref.Done() != n {
			t.Fatalf("sequential reference to %d configs: %d, %v", n, done, err)
		}
		want[n] = counterValues(reg)
		wantRestarts[n] = wantRestarts[3] + r
		if n == 5 {
			for _, name := range solveCounters {
				want[5][name] += want[3][name]
			}
		}
	}
	if want[5]["core.configs_solved"] != 5 || want[5]["core.solver_iterations"] <= 0 {
		t.Fatalf("sequential counters: %v", want[5])
	}

	for _, tc := range []struct{ configs, workers int }{{3, 2}, {5, 4}} {
		s := spec
		s.NConfigs = tc.configs
		reg := obs.NewRegistry()
		c := NewCampaign(s)
		c.Obs = ObsConfig{Metrics: reg}
		done, rep, err := c.RunBatchConcurrent(context.Background(), tc.configs, tc.workers)
		if err != nil || done != tc.configs {
			t.Fatalf("%d configs on %d workers: %d, %v", tc.configs, tc.workers, done, err)
		}
		if rep.Succeeded != 13*tc.configs || rep.Failed != 0 {
			t.Fatalf("%d configs on %d workers: report %+v", tc.configs, tc.workers, rep)
		}
		for i := 0; i < tc.configs; i++ {
			for k := range ref.C2[i] {
				if c.C2[i][k] != ref.C2[i][k] || c.CFH[i][k] != ref.CFH[i][k] {
					t.Fatalf("%d configs on %d workers: config %d differs from RunBatch", tc.configs, tc.workers, i)
				}
			}
		}
		if got := counterValues(reg); !equalCounters(got, want[tc.configs]) {
			t.Fatalf("%d configs on %d workers: counters %v, RunBatch %v", tc.configs, tc.workers, got, want[tc.configs])
		}
		if rep.SolverRestarts != wantRestarts[tc.configs] {
			t.Fatalf("%d configs on %d workers: %d restarts, RunBatch %d", tc.configs, tc.workers, rep.SolverRestarts, wantRestarts[tc.configs])
		}
	}
}

func equalCounters(a, b map[string]int64) bool {
	for _, name := range solveCounters {
		if a[name] != b[name] {
			return false
		}
	}
	return true
}

// TestColumnFailureFailsItsContraction fails one column of one
// configuration: that configuration's contraction must fail with it, the
// journal must never hold the configuration, the others must finish,
// and a resume from the journal must reach the uninterrupted campaign.
func TestColumnFailureFailsItsContraction(t *testing.T) {
	spec := columnSpec()
	spec.NConfigs = 3
	ref := NewCampaign(spec)
	if n, err := ref.RunBatch(10); err != nil || n != 3 {
		t.Fatalf("reference run: %d, %v", n, err)
	}
	errColumn := errors.New("injected column failure")
	columnFault = func(cfg, col int) error {
		if cfg == 1 && col == 5 {
			return errColumn
		}
		return nil
	}
	defer func() { columnFault = func(int, int) error { return nil } }()

	path := filepath.Join(t.TempDir(), "campaign.fwal")
	j, err := CreateJournal(path, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCampaign(spec)
	done, rep, err := c.RunBatchConcurrentJournaled(context.Background(), 10, 2, j)
	if !errors.Is(err, errColumn) {
		t.Fatalf("batch error %v, want the injected column failure", err)
	}
	if done != 2 || rep.Failed != 2 {
		t.Fatalf("done %d, %d failed tasks; want 2 done and the column plus its contraction failed", done, rep.Failed)
	}
	if _, ok := c.C2[1]; ok {
		t.Fatal("configuration 1 recorded despite a failed column")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	columnFault = func(int, int) error { return nil }

	j2, resumed, err := OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resumed.C2[1]; ok || resumed.Done() != 2 {
		t.Fatalf("journal holds %d configurations (config 1 present: %v), want 2 without config 1", resumed.Done(), ok)
	}
	if n, _, err := resumed.RunBatchConcurrentJournaled(context.Background(), 10, 2, j2); err != nil || n != 1 {
		t.Fatalf("resume: %d, %v", n, err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	assertSamePhysics(t, ref, resumed)
}

// TestJournaledSequentialWarmCache: RunBatchJournaled serves a warm
// store like RunBatch does - zero solver iterations - and its journal
// replays to the cold campaign's fingerprint.
func TestJournaledSequentialWarmCache(t *testing.T) {
	spec := columnSpec()
	spec.NConfigs = 2
	store, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold := NewCampaign(spec)
	cold.Cache = store
	if n, err := cold.RunBatch(10); err != nil || n != 2 {
		t.Fatalf("cold fill: %d, %v", n, err)
	}

	path := filepath.Join(t.TempDir(), "warm.fwal")
	j, err := CreateJournal(path, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	warm := NewCampaign(spec)
	warm.Cache = store
	warm.Obs = ObsConfig{Metrics: reg}
	if n, err := warm.RunBatchJournaled(10, j); err != nil || n != 2 {
		t.Fatalf("warm journaled: %d, %v", n, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("core.solver_iterations").Value(); v != 0 {
		t.Fatalf("warm journaled run performed %d solver iterations, want 0", v)
	}
	if st := store.Stats(); st.Computes != 2 || st.Hits < 2 {
		t.Fatalf("store stats %v: want 2 computes (the cold fill) and every warm configuration a hit", st)
	}

	j2, recovered, err := OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := recovered.Fingerprint(), cold.Fingerprint(); got != want {
		t.Fatalf("journal replays to fingerprint %s, cold campaign %s", got, want)
	}
}
