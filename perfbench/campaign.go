package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"femtoverse/internal/contract"
	"femtoverse/internal/core"
	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/prop"
	jobrt "femtoverse/internal/runtime"
	"femtoverse/internal/solver"
)

// campaignWorkers is the pool's solve-worker count on campaign-cold; the
// core driver sizes the contraction class at half of it (1).
const campaignWorkers = 2

// campaignPool is the number of gauge ensembles campaign-cold draws
// from. The pool is the same for every seed, because at 2^3x8 the solver
// work of one ensemble differs from the next by tens of percent. A run
// covers the pool in whole passes, so runs on different seeds do the
// same work and their rates compare. The seed orders the pool.
const campaignPool = 6

// campaignSpec is campaign-cold's k-th input and its pool index: the
// repository's default real campaign (2^3x8, Ls=4, single precision, tol
// 1e-8, 3 configurations) over the pool ensemble at position k of the
// seed's permutation, cycling.
func campaignSpec(seed int64, k int) (core.RealConfig, int) {
	j := rand.New(rand.NewSource(seed)).Perm(campaignPool)[k%campaignPool]
	spec := core.DefaultRealConfig()
	spec.Seed = deriveSeed(0, "campaign", j)
	return spec, j
}

// fingerprint is the core campaign fingerprint of a finished result.
func fingerprint(spec core.RealConfig, c2, cfh [][]float64) string {
	camp := core.NewCampaign(spec)
	for i := range c2 {
		camp.C2[i] = c2[i]
		camp.CFH[i] = cfh[i]
	}
	return camp.Fingerprint()
}

// coldRun is one timed campaign through the core driver.
type coldRun struct {
	wall time.Duration
	fp   string
	rep  *jobrt.Report
}

// runCold runs one campaign cold (no result cache) on the job runtime
// and accounts its configurations.
func (b *bench) runCold(ctx context.Context, spec core.RealConfig) (coldRun, bool) {
	b.attempted += spec.NConfigs
	t0 := time.Now()
	res, rep, err := core.RunRealConcurrent(ctx, spec, campaignWorkers)
	wall := time.Since(t0)
	if err != nil {
		b.failed += spec.NConfigs
		b.logf("campaign seed %d failed: %v", spec.Seed, err)
		return coldRun{}, false
	}
	b.check(rep.Failed == 0 && rep.FailedAttempts == 0,
		"campaign seed %d: runtime reports %d failed tasks, %d failed attempts", spec.Seed, rep.Failed, rep.FailedAttempts)
	return coldRun{wall: wall, fp: fingerprint(spec, res.C2, res.CFH), rep: rep}, true
}

// coldPhase runs cold campaigns over the spec sequence until the window
// has closed and the last pass over the pool is complete.
func (b *bench) coldPhase(ctx context.Context, window time.Duration) (runs []coldRun, configs int, wall time.Duration) {
	start := time.Now()
	for k := 0; k%campaignPool != 0 || k == 0 || time.Since(start) < window; k++ {
		spec, j := campaignSpec(b.seed, k)
		r, ok := b.runCold(ctx, spec)
		if !ok {
			runs = append(runs, coldRun{})
			continue
		}
		b.exact(fmt.Sprintf("fingerprint.pool%02d", j), r.fp)
		runs = append(runs, r)
		configs += spec.NConfigs
	}
	return runs, configs, time.Since(start)
}

// runCampaignCold is the campaign-cold workload: whole FH campaigns at
// the default spec through core.RunRealConcurrent with two pool workers
// and no cache, one after another, over the ensemble pool in seed order.
func runCampaignCold(b *bench) error {
	ctx := context.Background()
	b.env["pool_solve_workers"] = campaignWorkers
	b.env["pool_contract_workers"] = campaignWorkers / 2

	// Set-up: a two-configuration warm-up campaign (the smallest the
	// driver's jackknife accepts) on an input the timed phase never
	// uses, repeated; its median is setup_s.
	var setups []float64
	for r := 0; r < setupReps; r++ {
		spec := core.DefaultRealConfig()
		spec.NConfigs = 2
		spec.Seed = deriveSeed(b.seed, "warmup", r)
		t0 := time.Now()
		if _, _, err := core.RunRealConcurrent(ctx, spec, campaignWorkers); err != nil {
			return fmt.Errorf("warm-up campaign: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
	}
	b.metrics["setup_s"] = median(setups)
	b.logf("setup %s", describe(setups))

	runs, configs, wall := b.coldPhase(ctx, b.window())
	var walls []float64
	for _, r := range runs {
		if r.rep != nil {
			walls = append(walls, r.wall.Seconds())
		}
	}
	b.env["samples_campaigns"] = len(runs)
	b.env["samples_configs"] = configs
	b.logf("campaign wall %s", describe(walls))
	b.metrics["work_per_s"] = float64(configs) / wall.Seconds()
	b.metrics["e2e.op_p50_s"] = median(walls)
	b.metrics["e2e.op_p90_s"] = percentile(walls, 0.9)
	if !b.traced {
		return nil
	}

	// Traced run: the untraced phase above supplies the runtime report
	// metrics and the reference fingerprints; the replay phase below
	// times every layer of the same campaigns.
	var solveUtil, contractUtil []float64
	failedAttempts := 0
	for _, r := range runs {
		if r.rep == nil {
			continue
		}
		solveUtil = append(solveUtil, r.rep.SolveUtil)
		contractUtil = append(contractUtil, r.rep.ContractUtil)
		failedAttempts += r.rep.FailedAttempts
	}
	b.metrics["runtime.solve_util"] = median(solveUtil)
	b.metrics["runtime.contract_util"] = median(contractUtil)
	b.metrics["runtime.failed_attempts"] = float64(failedAttempts)

	var tr replayTimes
	var replayWalls []float64
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < b.window(); k++ {
		spec, j := campaignSpec(b.seed, k)
		t0 := time.Now()
		fp, err := replayCampaign(ctx, spec, &tr)
		replayWalls = append(replayWalls, time.Since(t0).Seconds())
		b.attempted += spec.NConfigs
		if err != nil {
			b.failed += spec.NConfigs
			b.logf("replay of campaign %d failed: %v", k, err)
			continue
		}
		b.exact(fmt.Sprintf("fingerprint.pool%02d", j), fp)
	}
	// Overhead over the campaigns both phases ran, pairwise.
	n := min(len(walls), len(replayWalls))
	b.metrics["trace_overhead"] = sum(replayWalls[:n])/sum(walls[:n]) - 1
	b.env["samples_replayed_campaigns"] = len(replayWalls)

	b.metrics["gauge.ensemble_s"] = median(tr.ensemble)
	b.metrics["prop.point_s"] = median(tr.point)
	b.metrics["prop.fh_s"] = median(tr.fh)
	b.metrics["contract.proton2pt_s"] = median(tr.c2)
	b.metrics["contract.fh3pt_s"] = median(tr.c3)
	b.logf("replay gauge.Ensemble %s", describe(tr.ensemble))
	b.logf("replay prop point %s", describe(tr.point))
	b.logf("replay prop fh %s", describe(tr.fh))

	// The Schur operator's rate inside a real campaign solve: one
	// component of campaign 0's first configuration through the timed
	// operator wrappers, checked bit for bit against the propagator.
	spec, _ := campaignSpec(b.seed, 0)
	return b.campaignSchurProbe(ctx, spec)
}

// replayTimes collects the per-layer spans of the replay, in seconds.
type replayTimes struct {
	mu                          sync.Mutex
	ensemble, point, fh, c2, c3 []float64
}

func (t *replayTimes) add(dst *[]float64, d time.Duration) {
	t.mu.Lock()
	*dst = append(*dst, d.Seconds())
	t.mu.Unlock()
}

// replayCampaign recomputes one campaign from the layers' public calls,
// in the order core's driver makes them, timing each layer: the gauge
// ensemble, then per configuration the boundary flip, the operators, the
// point and Feynman-Hellmann propagators and the two contractions. Two
// goroutines take configurations in turn, as the two pool workers do.
// It returns the core fingerprint of the correlators.
func replayCampaign(ctx context.Context, spec core.RealConfig, tr *replayTimes) (string, error) {
	g, err := lattice.New(spec.Dims)
	if err != nil {
		return "", err
	}
	t0 := time.Now()
	fields := gauge.Ensemble(g, spec.Seed, spec.Beta, spec.NConfigs, spec.ThermSweeps, spec.GapSweeps)
	tr.add(&tr.ensemble, time.Since(t0))

	c2 := make([][]float64, spec.NConfigs)
	cfh := make([][]float64, spec.NConfigs)
	errs := make([]error, spec.NConfigs)
	var wg sync.WaitGroup
	for w := 0; w < campaignWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < spec.NConfigs; i += campaignWorkers {
				c2[i], cfh[i], errs[i] = replayConfig(ctx, spec, fields[i], tr)
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return "", fmt.Errorf("config %d: %w", i, err)
		}
	}
	return fingerprint(spec, c2, cfh), nil
}

// quarkSolver builds configuration u's solver stack exactly as core's
// driver does.
func quarkSolver(spec core.RealConfig, u *gauge.Field) (*prop.QuarkSolver, error) {
	u.FlipTimeBoundary()
	m, err := dirac.NewMobius(u, spec.Params)
	if err != nil {
		return nil, err
	}
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		return nil, err
	}
	return prop.NewQuarkSolver(eo, solver.Params{Tol: spec.Tol, Precision: spec.Prec}), nil
}

func replayConfig(ctx context.Context, spec core.RealConfig, u *gauge.Field, tr *replayTimes) (c2, cfh []float64, err error) {
	qs, err := quarkSolver(spec, u)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	base, err := qs.ComputePointCtx(ctx, [4]int{0, 0, 0, 0})
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	fh, err := qs.FHPropagatorCtx(ctx, base, linalg.AxialGamma())
	if err != nil {
		return nil, nil, err
	}
	t2 := time.Now()
	c2 = contract.Real(contract.Proton2pt(base, base, 0))
	t3 := time.Now()
	cfh = contract.Real(contract.ProtonFH3pt(base, base, fh, fh, 0))
	t4 := time.Now()
	tr.add(&tr.point, t1.Sub(t0))
	tr.add(&tr.fh, t2.Sub(t1))
	tr.add(&tr.c2, t3.Sub(t2))
	tr.add(&tr.c3, t4.Sub(t3))
	return c2, cfh, nil
}

// campaignSchurProbe solves the (spin 0, colour 0) point-source
// component of the spec's first configuration with the timed operator
// wrappers and reports the Schur operator's rates at the campaign's
// volume. The solution must equal the propagator column the unwrapped
// solver stack computes.
func (b *bench) campaignSchurProbe(ctx context.Context, spec core.RealConfig) error {
	g, err := lattice.New(spec.Dims)
	if err != nil {
		return err
	}
	u := gauge.Ensemble(g, spec.Seed, spec.Beta, 1, spec.ThermSweeps, spec.GapSweeps)[0]
	qs, err := quarkSolver(spec, u)
	if err != nil {
		return err
	}
	src := prop.PointSource(g, [4]int{0, 0, 0, 0}, 0, 0)
	want, _, err := qs.Solve4DCtx(ctx, src)
	if err != nil {
		return err
	}
	op := &timedOp[complex128]{op: qs.EO}
	op32 := &timedOp[complex64]{op: qs.Sloppy}
	b5 := prop.Inject5D(src, qs.EO.M.Ls)
	bhat, etaOdd := qs.EO.PrepareSource(b5)
	xe, _, err := solver.CGNEMixed(ctx, op, op32, bhat, qs.Par)
	if err != nil {
		return err
	}
	got := prop.Project4D(qs.EO.Reconstruct(xe, etaOdd), qs.EO.M.Ls)
	b.check(equalBits(got, want), "campaign-cold: wrapped-operator solve differs from the solver stack's")
	flops := qs.EO.FlopsPerApply()
	b.metrics["dirac.schur_gflops.f64"] = op.gflops(flops)
	b.metrics["dirac.schur_gflops.f32"] = op32.gflops(flops)
	b.metrics["dirac.schur_bytes_per_flop.f64"] = schurBytesPerFlop(qs.EO, 16)
	b.metrics["dirac.schur_bytes_per_flop.f32"] = schurBytesPerFlop(qs.EO, 8)
	return nil
}

// equalBits reports whether two complex vectors are identical bit for
// bit.
func equalBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}
