package dirac

import (
	"math/rand"
	"sync"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
)

// TestForkAppliesConcurrently: forks of one operator pair, each at its
// own kernel width, apply concurrently and every one reproduces the
// parent's sequential bits in both precisions. Under -race this also
// proves the forks share no scratch.
func TestForkAppliesConcurrently(t *testing.T) {
	g := lattice.MustNew(4, 4, 4, 8)
	m, err := NewMobius(gauge.NewRandom(g, 31), MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	eo, err := NewMobiusEO(m)
	if err != nil {
		t.Fatal(err)
	}
	eo32 := NewMobiusEO32(eo)
	n := eo.Size()
	src := randField(rand.New(rand.NewSource(5)), n)
	src32 := make([]complex64, n)
	for i, v := range src {
		src32[i] = complex64(v)
	}
	want := make([]complex128, n)
	eo.ApplyNormal(want, src, make([]complex128, n))
	want32 := make([]complex64, n)
	eo32.ApplyNormal(want32, src32, make([]complex64, n))
	wantFull := make([]complex128, m.Size())
	full := randField(rand.New(rand.NewSource(6)), m.Size())
	m.Apply(wantFull, full)

	const forks = 4
	var wg sync.WaitGroup
	got := make([][]complex128, forks)
	got32 := make([][]complex64, forks)
	gotFull := make([][]complex128, forks)
	for k := 0; k < forks; k++ {
		f := eo.Fork()
		f.M.W.Workers = k + 1
		f32 := eo32.Fork(f)
		got[k] = make([]complex128, n)
		got32[k] = make([]complex64, n)
		gotFull[k] = make([]complex128, m.Size())
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tmp, tmp32 := make([]complex128, n), make([]complex64, n)
			for rep := 0; rep < 2; rep++ {
				f.ApplyNormal(got[k], src, tmp)
				f32.ApplyNormal(got32[k], src32, tmp32)
				f.M.Apply(gotFull[k], full)
			}
		}(k)
	}
	wg.Wait()
	for k := 0; k < forks; k++ {
		if hash128(got[k]) != hash128(want) || hash64(got32[k]) != hash64(want32) || hash128(gotFull[k]) != hash128(wantFull) {
			t.Fatalf("fork %d (width %d) differs from the parent's bits", k, k+1)
		}
	}
	if m.W.Workers != 0 {
		t.Fatalf("setting a fork's width changed the parent's to %d", m.W.Workers)
	}
}

// TestForkRejectsForeignParent: a single-precision fork must sit on a
// fork of its own parent, never on another gauge field's operator.
func TestForkRejectsForeignParent(t *testing.T) {
	g := lattice.MustNew(2, 2, 2, 4)
	build := func(seed int64) *MobiusEO {
		m, err := NewMobius(gauge.NewRandom(g, seed), MobiusParams{Ls: 4, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		eo, err := NewMobiusEO(m)
		if err != nil {
			t.Fatal(err)
		}
		return eo
	}
	a, b := build(1), build(2)
	defer func() {
		if recover() == nil {
			t.Fatal("MobiusEO32.Fork accepted an operator over a different gauge field")
		}
	}()
	NewMobiusEO32(a).Fork(b.Fork())
}
