package dirac

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// denseHopDir is the dense reference for direction d: the full 4x4 spin
// projector (1 -+ gamma_mu) times U (forward) or U^dag (backward).
func denseHopDir(out, in []complex128, u linalg.SU3, d int) {
	mu := d / 2
	sign := complex(-1, 0)
	if d%2 == 1 {
		sign = 1
	}
	proj := linalg.SpinIdentity().AddSM(linalg.Gamma(mu).ScaleSM(sign))
	denseHop(out, in, proj, u, d%2 == 1)
}

// hopDirInputs draws a random link, neighbour spinor and partially
// accumulated output spinor.
func hopDirInputs(seed int64) (u linalg.SU3, in, out []complex128) {
	cfg := gauge.NewRandom(lattice.MustNew(2, 2, 2, 2), seed)
	rng := rand.New(rand.NewSource(seed))
	return cfg.U[int(seed)%lattice.NDim][rng.Intn(cfg.G.Vol)], randField(rng, SpinorLen), randField(rng, SpinorLen)
}

// relDist returns |a-b| / |b|.
func relDist(a, b []complex128) float64 {
	return fieldDist(a, b) / math.Sqrt(linalg.NormSq(b, 0))
}

// TestHopDirMatchesDense64 checks every entry of the direction table in
// double precision against the dense projector, one direction at a time,
// so a sign or swap slip is reported against the direction that has it.
func TestHopDirMatchesDense64(t *testing.T) {
	for d := 0; d < HopDirs; d++ {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			for trial := int64(0); trial < 4; trial++ {
				u, in, out := hopDirInputs(10*int64(d) + trial)
				want := append([]complex128(nil), out...)
				denseHopDir(want, in, u, d)
				HopSite((*[SpinorLen]complex128)(out), (*[SpinorLen]complex128)(in), &u, d)
				if r := relDist(out, want); r > 1e-14 {
					t.Fatalf("trial %d: relative error %g against the dense projector", trial, r)
				}
			}
		})
	}
}

// TestHopDirMatchesDense32 is TestHopDirMatchesDense64 for the
// single-precision kernel, against the dense projector applied to the
// same (demoted) inputs in double precision.
func TestHopDirMatchesDense32(t *testing.T) {
	for d := 0; d < HopDirs; d++ {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			for trial := int64(0); trial < 4; trial++ {
				u, in, out := hopDirInputs(10*int64(d) + trial)
				var u32 SU3C64
				for i := range u {
					for j := range u[i] {
						u32[i][j] = complex64(u[i][j])
						u[i][j] = complex128(u32[i][j])
					}
				}
				in32 := make([]complex64, SpinorLen)
				out32 := make([]complex64, SpinorLen)
				linalg.Demote(in32, in)
				linalg.Demote(out32, out)
				linalg.Promote(in, in32)
				linalg.Promote(out, out32)

				want := append([]complex128(nil), out...)
				denseHopDir(want, in, u, d)
				hopSite32((*[SpinorLen]complex64)(out32), (*[SpinorLen]complex64)(in32), &u32, d)
				got := make([]complex128, SpinorLen)
				linalg.Promote(got, out32)
				if r := relDist(got, want); r > 1e-6 {
					t.Fatalf("trial %d: relative error %g against the dense projector", trial, r)
				}
			}
		})
	}
}

// TestWilsonApplyConcurrent holds Wilson.Apply to its documented
// contract: safe for concurrent use on one operator. Four goroutines
// apply it at once and must each reproduce the sequential result bit for
// bit; under -race this also proves the kernel shares no mutable state.
func TestWilsonApplyConcurrent(t *testing.T) {
	g := lattice.MustNew(4, 4, 2, 8)
	w := NewWilson(gauge.NewRandom(g, 23), -1.4)
	w.Workers = 2
	src := randField(rand.New(rand.NewSource(9)), w.Size())
	want := make([]complex128, w.Size())
	w.Apply(want, src)

	const goroutines = 4
	got := make([][]complex128, goroutines)
	var wg sync.WaitGroup
	for k := range got {
		got[k] = make([]complex128, w.Size())
		wg.Add(1)
		go func(dst []complex128) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				w.Apply(dst, src)
			}
		}(got[k])
	}
	wg.Wait()
	for k, dst := range got {
		if hash128(dst) != hash128(want) {
			t.Fatalf("goroutine %d: concurrent Apply differs from the sequential result", k)
		}
	}
}
