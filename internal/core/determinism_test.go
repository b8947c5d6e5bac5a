package core

import (
	"context"
	"testing"

	"femtoverse/internal/hio"
)

// requireIdentical asserts two campaigns measured the same correlators
// bit for bit.
func requireIdentical(t *testing.T, ref, got *Campaign) {
	t.Helper()
	if got.Done() != ref.Done() {
		t.Fatalf("done: %d vs %d", got.Done(), ref.Done())
	}
	for i := range ref.C2 {
		g2, ok := got.C2[i]
		if !ok {
			t.Fatalf("config %d missing", i)
		}
		for tt := range ref.C2[i] {
			if ref.C2[i][tt] != g2[tt] || ref.CFH[i][tt] != got.CFH[i][tt] {
				t.Fatalf("config %d correlators differ at t=%d", i, tt)
			}
		}
	}
}

// TestConcurrentCampaignBitForBit: the concurrent driver must produce
// exactly the sequential driver's numbers at every worker count. This
// holds because the per-configuration compute path is shared, each
// configuration is independent, and every parallel reduction inside the
// solves combines its partial sums in deterministic chunk order.
func TestConcurrentCampaignBitForBit(t *testing.T) {
	ref := NewCampaign(campaignSpec())
	if n, err := ref.RunBatch(10); err != nil || n != 4 {
		t.Fatalf("sequential reference: %d, %v", n, err)
	}

	for _, workers := range []int{2, 4} {
		c := NewCampaign(campaignSpec())
		n, rep, err := c.RunBatchConcurrent(context.Background(), 10, workers)
		if err != nil || n != 4 {
			t.Fatalf("workers=%d: %d, %v", workers, n, err)
		}
		// 4 configurations x (12 column tasks + 1 contraction).
		if rep == nil || rep.Succeeded != 52 || rep.Failed != 0 {
			t.Fatalf("workers=%d report: %+v", workers, rep)
		}
		if rep.SolveWorkers != workers {
			t.Fatalf("workers=%d: pool sized %d", workers, rep.SolveWorkers)
		}
		requireIdentical(t, ref, c)
	}
}

// TestConcurrentCampaignResumeBitForBit: an interrupted concurrent
// campaign, saved, round-tripped through the container and finished
// concurrently, still matches the uninterrupted sequential reference.
func TestConcurrentCampaignResumeBitForBit(t *testing.T) {
	ref := NewCampaign(campaignSpec())
	if n, err := ref.RunBatch(10); err != nil || n != 4 {
		t.Fatalf("sequential reference: %d, %v", n, err)
	}

	c1 := NewCampaign(campaignSpec())
	if n, _, err := c1.RunBatchConcurrent(context.Background(), 2, 2); err != nil || n != 2 {
		t.Fatalf("first concurrent batch: %d, %v", n, err)
	}
	file := hio.New()
	if err := c1.Save(file.Root()); err != nil {
		t.Fatal(err)
	}
	file2, err := hio.Decode(file.Encode())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := LoadCampaign(file2.Root())
	if err != nil {
		t.Fatal(err)
	}
	if c2.Done() != 2 {
		t.Fatalf("restored %d configs", c2.Done())
	}
	if n, _, err := c2.RunBatchConcurrent(context.Background(), 10, 4); err != nil || n != 2 {
		t.Fatalf("resume batch: %d, %v", n, err)
	}
	requireIdentical(t, ref, c2)
}

// TestRunRealConcurrentMatchesSequential: the top-level concurrent
// pipeline reproduces RunReal exactly, including the jackknifed
// effective-coupling curve.
func TestRunRealConcurrentMatchesSequential(t *testing.T) {
	cfg := campaignSpec()
	cfg.NConfigs = 3

	ref, err := RunReal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := RunRealConcurrent(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 3 configurations x (12 column tasks + 1 contraction).
	if rep == nil || rep.Succeeded != 39 {
		t.Fatalf("report: %+v", rep)
	}
	if len(got.C2) != len(ref.C2) {
		t.Fatalf("configs: %d vs %d", len(got.C2), len(ref.C2))
	}
	for i := range ref.C2 {
		for tt := range ref.C2[i] {
			if ref.C2[i][tt] != got.C2[i][tt] || ref.CFH[i][tt] != got.CFH[i][tt] {
				t.Fatalf("config %d correlators differ at t=%d", i, tt)
			}
		}
	}
	for i := range ref.Geff {
		if ref.Geff[i] != got.Geff[i] || ref.GeffErr[i] != got.GeffErr[i] {
			t.Fatalf("geff differs at t=%d: %v vs %v", i, ref.Geff[i], got.Geff[i])
		}
	}
}
