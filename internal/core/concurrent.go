package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"femtoverse/internal/contract"
	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/obs"
	"femtoverse/internal/prop"
	jobrt "femtoverse/internal/runtime"
	"femtoverse/internal/solver"
)

// configSolve is one configuration's solve stage: its operator pair,
// built on first use, and the point and Feynman-Hellmann propagators its
// twelve column solves fill in. Column j is a self-contained chain - the
// point solve for source component j, then the FH solve whose source is
// Gamma times that column - so the columns may run in any order, or
// concurrently on forks of the operator pair, and give the same bits.
type configSolve struct {
	spec RealConfig
	u    *gauge.Field

	build sync.Once
	qs    *prop.QuarkSolver // nil before the first column and after the last
	err   error
	left  atomic.Int32 // columns still to succeed

	base, fh prop.Propagator
	// Per-column solver work: iterations, precision-escalation restarts
	// and flops, summed by record.
	iters, restarts [prop.NComp]int
	flops           [prop.NComp]int64
}

func newConfigSolve(spec RealConfig, u *gauge.Field) *configSolve {
	s := &configSolve{spec: spec, u: u}
	s.left.Store(prop.NComp)
	return s
}

// operators builds the operator pair once, for whichever column asks
// first: the time-boundary flip, then the Mobius, even-odd and
// single-precision operators.
func (s *configSolve) operators() (*prop.QuarkSolver, error) {
	s.build.Do(func() {
		s.u.FlipTimeBoundary()
		m, err := dirac.NewMobius(s.u, s.spec.Params)
		if err != nil {
			s.err = err
			return
		}
		eo, err := dirac.NewMobiusEO(m)
		if err != nil {
			s.err = err
			return
		}
		s.qs = prop.NewQuarkSolver(eo, solver.Params{Tol: s.spec.Tol, Precision: s.spec.Prec})
		s.base.G, s.fh.G = s.u.G, s.u.G
	})
	return s.qs, s.err
}

// solveColumn runs column j - point solve j, the axial insertion, then FH
// solve j. With width > 0 it runs on its own fork of the operator pair
// with that kernel and BLAS-1 width, so columns may run concurrently;
// width 0 runs it on the shared operators at their default width, for
// callers that run the columns one at a time. The last column to succeed
// drops the operators; the propagators stay for the contraction.
func (s *configSolve) solveColumn(ctx context.Context, j, width int) error {
	qs, err := s.operators()
	if err != nil {
		return err
	}
	if width > 0 {
		qs = qs.Fork(width)
	}
	iters, restarts, flops := qs.TotalIterations, qs.TotalRestarts, qs.TotalFlops
	spin, color := j/3, j%3
	q, _, err := qs.Solve4DCtx(ctx, prop.PointSource(s.u.G, [4]int{}, spin, color))
	if err != nil {
		return fmt.Errorf("prop: component (s=%d,c=%d): %w", spin, color, err)
	}
	seq := make([]complex128, len(q))
	prop.SpinMul(seq, q, linalg.AxialGamma())
	fh, _, err := qs.Solve4DCtx(ctx, seq)
	if err != nil {
		return fmt.Errorf("prop: FH component %d: %w", j, err)
	}
	s.base.Col[j], s.fh.Col[j] = q, fh
	s.iters[j] = qs.TotalIterations - iters
	s.restarts[j] = qs.TotalRestarts - restarts
	s.flops[j] = qs.TotalFlops - flops
	if s.left.Add(-1) == 0 {
		s.qs = nil
	}
	return nil
}

// columnFault is a test seam: a non-nil error it returns for column col
// of configuration cfg fails that column task before it solves.
var columnFault = func(cfg, col int) error { return nil }

// solveConfig runs the full solve stage for one configuration: its
// twelve columns in order, on the shared operators. Every driver
// solves through solveColumn, which is what makes their outputs
// bit-for-bit comparable.
func solveConfig(ctx context.Context, spec RealConfig, u *gauge.Field) (*configSolve, error) {
	s := newConfigSolve(spec, u)
	for j := 0; j < prop.NComp; j++ {
		if err := s.solveColumn(ctx, j, 0); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// record adds the configuration's solver work to the campaign counters
// (reg is nil-safe) and returns its precision-escalation restarts.
func (s *configSolve) record(reg *obs.Registry) (restarts int) {
	iters, flops := 0, int64(0)
	for j := range s.iters {
		iters += s.iters[j]
		restarts += s.restarts[j]
		flops += s.flops[j]
	}
	reg.Counter("core.configs_solved").Inc()
	reg.Counter("core.solver_iterations").Add(int64(iters))
	reg.Counter("core.solver_flops").Add(flops)
	return restarts
}

// contractConfig runs the contraction stage: the proton two-point and FH
// three-point correlators from one configuration's propagators.
func contractConfig(s *configSolve) (c2, cfh []float64) {
	c2 = contract.Real(contract.Proton2pt(&s.base, &s.base, 0))
	cfh = contract.Real(contract.ProtonFH3pt(&s.base, &s.base, &s.fh, &s.fh, 0))
	return c2, cfh
}

// RunBatchConcurrent is RunBatch executed on the job runtime. Each of up
// to n outstanding configurations becomes twelve propagator-column tasks
// on `workers` solve workers - column j is point solve j followed by FH
// solve j - plus one contraction task on the contraction class that
// depends on all twelve, the mpi_jm pattern of scheduling every
// independent solve as its own job. Each column task runs its kernels
// and BLAS-1 at the pool's KernelWidth. A campaign with a result cache
// keeps one solve task per configuration instead, because the cache's
// per-key singleflight owns a whole configuration. The result is
// bit-for-bit identical to the sequential RunBatch at any worker count:
// every driver solves through the same column function, columns are
// independent, and reductions use fixed chunks at any width. Returns how
// many configurations completed and the runtime's utilization report.
func (c *Campaign) RunBatchConcurrent(ctx context.Context, n, workers int) (int, *jobrt.Report, error) {
	return c.runBatchConcurrent(ctx, n, workers, nil, jobrt.Budget{}, nil)
}

// RunBatchConcurrentJournaled is RunBatchConcurrent with write-ahead
// logging: each configuration's correlators are appended to the journal
// from its contraction task the moment they exist, so a killed campaign
// loses only in-flight work. The report's JournalCheckpoints counts the
// durable checkpoints this batch produced.
func (c *Campaign) RunBatchConcurrentJournaled(ctx context.Context, n, workers int, j *Journal) (int, *jobrt.Report, error) {
	before := j.Checkpoints()
	done, rep, err := c.runBatchConcurrent(ctx, n, workers, j, jobrt.Budget{}, nil)
	if rep != nil {
		rep.JournalCheckpoints = j.Checkpoints() - before
	}
	return done, rep, err
}

// RunBatchConcurrentBudgeted is RunBatchConcurrentJournaled on a bounded
// allocation: the pool refuses configurations whose calibrated estimate
// no longer fits the budget, drains gracefully at expiry (or on a notice
// through preempt - the SIGTERM landing path), and the journal is forced
// durable before the call returns, so a follow-up run resumes bit-for-bit
// from every configuration that finished ahead of the wall. Refused and
// stranded configurations are not errors - they are the next allocation's
// work - so an interrupted batch returns a nil error with done < n.
func (c *Campaign) RunBatchConcurrentBudgeted(ctx context.Context, n, workers int, j *Journal, budget jobrt.Budget, preempt <-chan string) (int, *jobrt.Report, error) {
	before := j.Checkpoints()
	done, rep, err := c.runBatchConcurrent(ctx, n, workers, j, budget, preempt)
	if serr := j.Sync(); serr != nil && err == nil {
		err = serr
	}
	if rep != nil {
		rep.JournalCheckpoints = j.Checkpoints() - before
	}
	return done, rep, err
}

func (c *Campaign) runBatchConcurrent(ctx context.Context, n, workers int, j *Journal, budget jobrt.Budget, preempt <-chan string) (int, *jobrt.Report, error) {
	if n <= 0 || c.Complete() {
		return 0, nil, nil
	}
	g, err := lattice.New(c.Spec.Dims)
	if err != nil {
		return 0, nil, err
	}

	// Outstanding configurations in order, up to the batch size. Result-
	// cache hits are recorded (and journaled) here, before admission: a
	// cached configuration never becomes a pool task, so a fully warm
	// batch performs zero solver iterations and skips ensemble
	// regeneration entirely. The ctx check keeps a cancelled campaign
	// from submitting a fresh batch.
	var picked []int
	hits := 0
	for i := 0; i < c.Spec.NConfigs && hits+len(picked) < n; i++ {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		if _, ok := c.C2[i]; ok {
			continue
		}
		if c2, cfh, ok := c.cacheLookup(i); ok {
			if j != nil {
				if err := j.Append(i, c2, cfh); err != nil {
					return hits, nil, fmt.Errorf("core: journal config %d: %w", i, err)
				}
			}
			c.C2[i] = c2
			c.CFH[i] = cfh
			hits++
			continue
		}
		picked = append(picked, i)
	}
	if len(picked) == 0 {
		return hits, nil, nil
	}
	configs := gauge.Ensemble(g, c.Spec.Seed, c.Spec.Beta, c.Spec.NConfigs,
		c.Spec.ThermSweeps, c.Spec.GapSweeps)

	pool := jobrt.Config{
		SolveWorkers:    workers,
		ContractWorkers: max(1, workers/2),
		Budget:          budget,
		Preempt:         preempt,
		Metrics:         c.Obs.Metrics,
		Trace:           c.Obs.Trace,
	}
	width := pool.KernelWidth()
	// corr[k] and restarts[k] are written by configuration k's solve
	// tasks or its contraction task; the dependency edges sequence the
	// accesses through the pool.
	corr := make([][2][]float64, len(picked))
	restarts := make([]int, len(picked))
	var tasks []jobrt.Task
	for k, i := range picked {
		k, i, u := k, i, configs[i]
		var solves []int
		var s *configSolve
		if c.Cache != nil {
			// The solve and contraction run inside the cache's per-key
			// singleflight, so concurrent campaigns on one store solve
			// each configuration exactly once; the contraction task below
			// then only journals.
			solves = append(solves, len(tasks))
			tasks = append(tasks, jobrt.Task{
				ID:    len(tasks),
				Name:  fmt.Sprintf("solve cfg%04d", i),
				Class: jobrt.Solve,
				Cost:  1,
				Run: func(tctx context.Context) (interface{}, error) {
					c2, cfh, r, err := c.solveThroughCache(tctx, i, u)
					if err != nil {
						return nil, fmt.Errorf("core: config %d: %w", i, err)
					}
					corr[k], restarts[k] = [2][]float64{c2, cfh}, r
					return nil, nil
				},
			})
		} else {
			// The operators are built by the first column task to run and
			// dropped after the last, so a queued configuration holds only
			// its gauge field.
			s = newConfigSolve(c.Spec, u)
			for col := 0; col < prop.NComp; col++ {
				col := col
				solves = append(solves, len(tasks))
				tasks = append(tasks, jobrt.Task{
					ID:    len(tasks),
					Name:  fmt.Sprintf("solve cfg%04d col%02d", i, col),
					Class: jobrt.Solve,
					Cost:  1.0 / prop.NComp,
					Run: func(tctx context.Context) (interface{}, error) {
						err := columnFault(i, col)
						if err == nil {
							err = s.solveColumn(tctx, col, width)
						}
						if err != nil {
							return nil, fmt.Errorf("core: config %d: %w", i, err)
						}
						return nil, nil
					},
				})
			}
		}
		tasks = append(tasks, jobrt.Task{
			ID:        len(tasks),
			Name:      fmt.Sprintf("contract cfg%04d", i),
			Class:     jobrt.Contract,
			Cost:      0.05,
			DependsOn: solves,
			Run: func(tctx context.Context) (interface{}, error) {
				if s != nil {
					c2, cfh := contractConfig(s)
					corr[k], restarts[k] = [2][]float64{c2, cfh}, s.record(c.Obs.Metrics)
					s = nil // propagators are large; release promptly
				}
				if j != nil {
					// Log before reporting success: if the append fails
					// the task fails, and on a crash the journal never
					// claims work it does not hold.
					if err := j.Append(i, corr[k][0], corr[k][1]); err != nil {
						return nil, fmt.Errorf("core: journal config %d: %w", i, err)
					}
				}
				return nil, nil
			},
		})
	}

	// The campaign span brackets the whole batch on the control lane; the
	// runtime adds per-attempt spans on the worker lanes and the solvers
	// nest their CG spans under those via the attempt context.
	campScope := obs.NewScope(c.Obs.Trace, 0, 0)
	campSpan := campScope.Begin("campaign", fmt.Sprintf("batch n=%d", len(picked)),
		map[string]interface{}{"configs": len(picked), "workers": workers})
	_, rep, runErr := jobrt.Run(ctx, pool, tasks)

	// Record whatever completed, even if some configuration failed; the
	// pre-admission cache hits already count.
	done := hits
	for k, i := range picked {
		if corr[k][0] == nil {
			continue
		}
		c.C2[i] = corr[k][0]
		c.CFH[i] = corr[k][1]
		done++
	}
	for _, r := range restarts {
		rep.SolverRestarts += r
	}
	campSpan.EndWith(map[string]interface{}{"done": done})
	return done, &rep, runErr
}

// RunRealConcurrent is RunReal on the job runtime: the same pipeline and
// the same result, computed as propagator-column tasks on `workers` solve
// workers (see RunBatchConcurrent), plus the runtime's utilization
// report.
func RunRealConcurrent(ctx context.Context, cfg RealConfig, workers int) (*RealResult, *jobrt.Report, error) {
	return RunRealConcurrentObs(ctx, cfg, workers, ObsConfig{})
}

// RunRealConcurrentObs is RunRealConcurrent with observability sinks
// attached: the campaign span, per-attempt worker spans, solver CG spans
// and the metrics counters all land in the given registry and tracer.
// The physics is bit-for-bit identical with or without sinks.
func RunRealConcurrentObs(ctx context.Context, cfg RealConfig, workers int, sinks ObsConfig) (*RealResult, *jobrt.Report, error) {
	return RunRealConcurrentCached(ctx, cfg, workers, sinks, nil)
}
