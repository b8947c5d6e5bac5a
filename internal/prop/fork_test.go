package prop

import (
	"math"
	"sync"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// TestForkSolvesColumnsConcurrently: forks of one solver, each at its
// own width, solve the twelve point columns and their FH columns
// concurrently, and every column is bit-for-bit the sequential
// ComputePoint/FHPropagator column. Each fork's totals count only its
// own solves. Under -race this proves the forks share no scratch.
func TestForkSolvesColumnsConcurrently(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	cfg := gauge.NewWeak(g, 7, 0.25)
	cfg.FlipTimeBoundary()
	qs := testSolver(t, cfg, 0.2)
	base, err := qs.ComputePoint([4]int{})
	if err != nil {
		t.Fatal(err)
	}
	fh, err := qs.FHPropagator(base, linalg.AxialGamma())
	if err != nil {
		t.Fatal(err)
	}

	var gotBase, gotFH [NComp][]complex128
	errs := make([]error, NComp)
	var wg sync.WaitGroup
	for j := 0; j < NComp; j++ {
		f := qs.Fork(1 + j%3)
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			q, _, err := f.Solve4D(PointSource(g, [4]int{}, j/3, j%3))
			if err != nil {
				errs[j] = err
				return
			}
			seq := make([]complex128, len(q))
			SpinMul(seq, q, linalg.AxialGamma())
			r, _, err := f.Solve4D(seq)
			if err != nil {
				errs[j] = err
				return
			}
			if f.Solves != 2 {
				t.Errorf("column %d: fork counted %d solves, want its own 2", j, f.Solves)
			}
			gotBase[j], gotFH[j] = q, r
		}(j)
	}
	wg.Wait()
	for j := 0; j < NComp; j++ {
		if errs[j] != nil {
			t.Fatalf("column %d: %v", j, errs[j])
		}
		if !sameBits(gotBase[j], base.Col[j]) || !sameBits(gotFH[j], fh.Col[j]) {
			t.Fatalf("column %d: concurrent fork solve differs from the sequential propagator", j)
		}
	}
	if qs.EO.M.W.Workers != 0 || qs.Par.Workers != 0 {
		t.Fatal("setting a fork's width changed the parent solver's")
	}
}

func sameBits(a, b []complex128) bool {
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
