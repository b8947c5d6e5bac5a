package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"femtoverse/internal/dirac"
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
	"femtoverse/internal/solver"
)

// solve-precision's problem: the 4^3x8 lattice, Ls=6 Mobius operator and
// tolerance of the repository's CGNE precision ablation.
var (
	solveDims   = [4]int{4, 4, 4, 8}
	solveParams = dirac.MobiusParams{Ls: 6, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1}
)

const (
	solveTol   = 1e-8
	solveBeta  = 5.8
	solveTherm = 5
)

var precisions = []solver.Precision{solver.Double, solver.Single, solver.Half}

// operator is the method set solver.Linear (complex128) and
// solver.Linear32 (complex64) share.
type operator[E complex64 | complex128] interface {
	Apply(dst, src []E)
	ApplyDagger(dst, src []E)
	Size() int
}

// timedOp wraps an operator and accumulates the count and wall time of
// its applications; timedOp[complex128] is a solver.Linear and
// timedOp[complex64] a solver.Linear32.
type timedOp[E complex64 | complex128] struct {
	op operator[E]
	n  int
	d  time.Duration
}

func (t *timedOp[E]) Apply(dst, src []E) {
	t0 := time.Now()
	t.op.Apply(dst, src)
	t.d += time.Since(t0)
	t.n++
}

func (t *timedOp[E]) ApplyDagger(dst, src []E) {
	t0 := time.Now()
	t.op.ApplyDagger(dst, src)
	t.d += time.Since(t0)
	t.n++
}

func (t *timedOp[E]) Size() int { return t.op.Size() }

// gflops is the applications' rate at flopsPerApply flops each.
func (t *timedOp[E]) gflops(flopsPerApply int64) float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.n) * float64(flopsPerApply) / t.d.Seconds() / 1e9
}

// schurBytesPerFlop is the Schur operator's bytes per flop COMPUTED FROM
// ARRAY SIZES, not measured: every array one Apply reads or writes is
// counted once per kernel pass, at elem bytes per complex number (16 for
// f64, 8 for f32). With H the bytes of one half-volume 5-D field, the
// passes are B (5H: chi read+write, then src, dst read and dst write),
// the hopping term twice (2H each plus the 8 links per site, per fifth-
// dimension slice), A^-1 (2H), B again (5H), A (5H) and the final axpy
// (3H). Cache reuse is ignored, so this is an upper bound on traffic.
func schurBytesPerFlop(eo *dirac.MobiusEO, elem int) float64 {
	hv := float64(eo.HalfVol())
	ls := float64(eo.M.Ls)
	h := ls * hv * dirac.SpinorLen * float64(elem)
	links := ls * hv * 8 * 9 * float64(elem)
	bytes := 24*h + 2*links
	return bytes / float64(eo.FlopsPerApply())
}

// solveProblem is solve-precision's set-up product.
type solveProblem struct {
	eo   *dirac.MobiusEO
	eo32 *dirac.MobiusEO32
	rhs  []complex128
}

// newSolveProblem builds the gauge field, the operators and the source,
// returning the gauge.Ensemble time separately. The gauge field is the
// same for every seed, since the iteration count, and with it the time
// to solution, varies from one field to the next by more than the
// regressions the benchmark must resolve; the seed draws the source.
func newSolveProblem(seed int64) (*solveProblem, time.Duration, error) {
	g, err := lattice.New(solveDims)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	u := gauge.Ensemble(g, deriveSeed(0, "gauge", 0), solveBeta, 1, solveTherm, 0)[0]
	ens := time.Since(t0)
	u.FlipTimeBoundary()
	m, err := dirac.NewMobius(u, solveParams)
	if err != nil {
		return nil, 0, err
	}
	eo, err := dirac.NewMobiusEO(m)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(deriveSeed(seed, "rhs", 0)))
	rhs := make([]complex128, eo.HalfSize())
	for i := range rhs {
		rhs[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return &solveProblem{eo: eo, eo32: dirac.NewMobiusEO32(eo), rhs: rhs}, ens, nil
}

// solveSample is the record of one solve: its wall time, the solver's
// statistics and, for a timed solve, the operator wrappers' counts.
type solveSample struct {
	wall time.Duration
	st   solver.Stats
	op64 timedOp[complex128]
	op32 timedOp[complex64]
}

// solveOnce runs one solve at precision p, wrapping the operators when
// timed is set, and checks it: convergence, the true residual
// recomputed in double with the f64 operator, and the iteration count.
func (b *bench) solveOnce(ctx context.Context, sp *solveProblem, p solver.Precision, timed bool) (solveSample, bool) {
	var op solver.Linear = sp.eo
	var sloppy solver.Linear32
	if p != solver.Double {
		sloppy = sp.eo32
	}
	w64, w32 := &timedOp[complex128]{op: sp.eo}, &timedOp[complex64]{op: sp.eo32}
	if timed {
		op = w64
		if sloppy != nil {
			sloppy = w32
		}
	}
	par := solver.Params{Tol: solveTol, Precision: p, FlopsPerApply: sp.eo.FlopsPerApply()}
	b.attempted++
	t0 := time.Now()
	x, st, err := solver.CGNEMixed(ctx, op, sloppy, sp.rhs, par)
	wall := time.Since(t0)
	if err != nil || !st.Converged {
		b.failed++
		b.logf("%s solve failed: converged=%v err=%v", p, st.Converged, err)
		return solveSample{}, false
	}
	res := trueResidual(sp.eo, x, sp.rhs)
	b.check(res <= solveTol, "solve-precision: %s solve true residual %.3g > tol %.0g", p, res, solveTol)
	b.exact("iters."+p.String(), fmt.Sprint(st.Iterations))
	return solveSample{wall: wall, st: st, op64: *w64, op32: *w32}, true
}

// trueResidual is ||b - D x|| / ||b|| in double precision.
func trueResidual(op *dirac.MobiusEO, x, b []complex128) float64 {
	r := make([]complex128, len(b))
	op.Apply(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return linalg.Norm(r, 0) / linalg.Norm(b, 0)
}

// solvePhase cycles double, single and half solves for one window.
func (b *bench) solvePhase(ctx context.Context, sp *solveProblem, window time.Duration, timed bool) map[solver.Precision][]solveSample {
	out := map[solver.Precision][]solveSample{}
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < window; cycle++ {
		for _, p := range precisions {
			if s, ok := b.solveOnce(ctx, sp, p, timed); ok {
				out[p] = append(out[p], s)
			}
		}
	}
	return out
}

func walls(ss []solveSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall.Seconds()
	}
	return out
}

// runSolvePrecision is the solve-precision workload: single-RHS
// solver.CGNEMixed solves of the even-odd Mobius operator, cycling
// double, single and half precision on one gauge field and source.
func runSolvePrecision(b *bench) error {
	ctx := context.Background()
	b.env["pool_solve_workers"] = 0
	b.env["pool_contract_workers"] = 0

	// Set-up: build the problem and warm it with one untimed double
	// solve, repeated; setup_s is the median.
	var sp *solveProblem
	var setups, ens []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		p, e, err := newSolveProblem(b.seed)
		if err != nil {
			return err
		}
		par := solver.Params{Tol: solveTol, Precision: solver.Double, FlopsPerApply: p.eo.FlopsPerApply()}
		if _, _, err := solver.CGNEMixed(ctx, p.eo, nil, p.rhs, par); err != nil {
			return fmt.Errorf("warm-up solve: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		ens = append(ens, e.Seconds())
		sp = p
		runtime.GC()
	}
	b.metrics["setup_s"] = median(setups)
	b.logf("setup %s", describe(setups))

	plain := b.solvePhase(ctx, sp, b.window(), false)
	p50, p90, n := 0.0, 0.0, 0
	var total time.Duration
	for _, p := range precisions {
		w := walls(plain[p])
		b.logf("solve_%s_s %s", p, describe(w))
		p50 += median(w)
		p90 += percentile(w, 0.9)
		n += len(w)
		for _, s := range plain[p] {
			total += s.wall
		}
		b.env["samples_"+p.String()] = len(w)
	}
	b.metrics["work_per_s"] = float64(n) / total.Seconds()
	b.metrics["e2e.op_p50_s"] = p50
	b.metrics["e2e.op_p90_s"] = p90
	if !b.traced {
		return nil
	}

	b.metrics["gauge.ensemble_s"] = median(ens)
	timed := b.solvePhase(ctx, sp, b.window(), true)
	tp50 := 0.0
	// The operator rates aggregate every application of the timed
	// solves: double runs only the f64 operator, single and half run
	// the f32 one and the f64 one at reliable updates.
	var all64 timedOp[complex128]
	var all32 timedOp[complex64]
	for _, p := range precisions {
		ss := timed[p]
		w := walls(ss)
		tp50 += median(w)
		if len(ss) == 0 {
			continue // every solve failed; the failures already fail the run
		}
		name := p.String()
		var wall, inOp time.Duration
		var f int64
		var el time.Duration
		for _, s := range ss {
			wall += s.wall
			inOp += s.op64.d + s.op32.d
			f += s.st.Flops
			el += s.st.Elapsed
			all64.n += s.op64.n
			all64.d += s.op64.d
			all32.n += s.op32.n
			all32.d += s.op32.d
		}
		first := ss[0]
		b.metrics["solver.solve_s."+name] = median(w)
		b.metrics["linalg.blas1_share."+name] = (wall - inOp).Seconds() / wall.Seconds()
		b.metrics["dirac.applies_per_solve."+name] = float64(first.op64.n + first.op32.n)
		b.metrics["solver.iters."+name] = float64(first.st.Iterations)
		b.metrics["solver.reliable_updates."+name] = float64(first.st.ReliableUpdates)
		b.metrics["solver.restarts."+name] = float64(first.st.Restarts)
		b.metrics["solver.gflops."+name] = float64(f) / el.Seconds() / 1e9
		for _, s := range ss {
			b.exact("applies."+name, fmt.Sprint(s.op64.n+s.op32.n))
			b.exact("reliable_updates."+name, fmt.Sprint(s.st.ReliableUpdates))
		}
	}
	flops := sp.eo.FlopsPerApply()
	b.metrics["trace_overhead"] = tp50/p50 - 1
	b.metrics["dirac.schur_gflops.f64"] = all64.gflops(flops)
	b.metrics["dirac.schur_gflops.f32"] = all32.gflops(flops)
	bpf64 := schurBytesPerFlop(sp.eo, 16)
	bpf32 := schurBytesPerFlop(sp.eo, 8)
	b.metrics["dirac.schur_bytes_per_flop.f64"] = bpf64
	b.metrics["dirac.schur_bytes_per_flop.f32"] = bpf32

	gbps, arrayMiB, llcMiB := b.axpyRoofline()
	b.metrics["linalg.axpy_gbps"] = gbps
	b.metrics["linalg.axpy_array_mib"] = arrayMiB
	b.metrics["linalg.llc_mib"] = llcMiB
	if gbps > 0 {
		b.metrics["dirac.schur_roofline.f64"] = b.metrics["dirac.schur_gflops.f64"] * bpf64 / gbps
		b.metrics["dirac.schur_roofline.f32"] = b.metrics["dirac.schur_gflops.f32"] * bpf32 / gbps
	}
	return nil
}

// axpyArrayBytes sizes each axpy array from the last-level cache: at
// least four times its size, so the stream runs from memory.
var axpyArrayBytes = func(llc int64) int64 { return 4 * llc }

// axpyRoofline measures the linalg.Axpy stream rate on arrays of at
// least four times the last-level cache, the roofline's bandwidth
// reference. It returns zeros, and says so, when the machine reports
// too little available memory for arrays that large.
func (b *bench) axpyRoofline() (gbps, arrayMiB, llcMiB float64) {
	llc, err := llcBytes()
	if err != nil {
		b.logf("axpy: %v; roofline ratio not reported", err)
		return 0, 0, 0
	}
	llcMiB = float64(llc) / (1 << 20)
	n := int(axpyArrayBytes(llc)/16) + 1
	arrayBytes := int64(n) * 16
	arrayMiB = float64(arrayBytes) / (1 << 20)
	avail, err := memAvailableBytes()
	if err != nil || avail < 2*arrayBytes+(1<<30) {
		b.logf("axpy: %.0f MiB per array needs more than the available %d MiB; roofline ratio not reported", arrayMiB, avail>>20)
		return 0, arrayMiB, llcMiB
	}
	x := make([]complex128, n)
	y := make([]complex128, n)
	linalg.For(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] = complex(float64(i&1023), 1)
			y[i] = 1
		}
	})
	var rates []float64
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		linalg.Axpy(complex(1e-9, 0), x, y, 0)
		// Each element reads x and y and writes y.
		rates = append(rates, 3*float64(arrayBytes)/time.Since(t0).Seconds()/1e9)
	}
	x, y = nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	b.logf("axpy GB/s %s (two arrays of %.0f MiB, LLC %.0f MiB)", describe(rates), arrayMiB, llcMiB)
	b.env["samples_axpy"] = len(rates)
	return median(rates), arrayMiB, llcMiB
}
