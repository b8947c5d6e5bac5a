package dirac

import (
	"fmt"

	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// MobiusEO is the red-black (even-odd) Schur-preconditioned Mobius
// operator, the system the paper's production solver inverts. Writing the
// full operator in 4-D parity blocks (the fifth dimension does not change
// 4-D parity),
//
//	D = [ A    K_eo ]        A = a + c*chi        a = (4-M5)*b5 + 1
//	    [ K_oe  A   ]        K = Hop o B          c = (4-M5)*c5 - 1
//
// where Hop is the parity-flipping Wilson hopping term (with its -1/2) and
// B = b5 + c5*chi, the Schur complement on the even sublattice is
//
//	Dhat = A - K_eo A^{-1} K_oe.
//
// A acts site-diagonally in 4-D and bidiagonally (plus the -m chiral wrap)
// in the fifth dimension, so A^{-1} is a precomputed dense Ls x Ls matrix
// per chirality - QUDA's M5inv kernel. The preconditioned solve works on
// half-volume fields of layout (s*HalfVol + i)*12 + comp.
type MobiusEO struct {
	M  *Mobius
	EO *lattice.EvenOdd

	a, c float64
	// minvP / minvM are the Ls x Ls inverses of A restricted to the P+
	// (spins 0,1) and P- (spins 2,3) chirality sectors; minvM is the
	// transpose of minvP because the sectors are transposes of each other.
	minvP, minvM []float64

	// nbr[p][i*HopDirs+d] is the half-volume index, in the opposite
	// parity, of the neighbour in direction d of site i of parity p;
	// link[p][i*HopDirs+d] is the lexicographic site holding that hop's
	// link, U_mu(x) forward or U_mu(x-mu) backward. Both are built once
	// here and shared with the single-precision mirror.
	nbr, link [2][]int32

	// Scratch half-fields (Ls * HalfVol * SpinorLen each).
	t1, t2, t3 []complex128
}

// NewMobiusEO builds the preconditioned operator from a Mobius operator.
func NewMobiusEO(m *Mobius) (*MobiusEO, error) {
	wkernel := 4 + m.W.Mass // = 4 - M5, the Wilson-kernel diagonal
	p := &MobiusEO{
		M:  m,
		EO: lattice.NewEvenOdd(m.W.G),
		a:  wkernel*m.B5 + 1,
		c:  wkernel*m.C5 - 1,
	}
	ls := m.Ls
	// A restricted to the P+ sector: a on the diagonal, c on the
	// subdiagonal, -m*c in the upper-right corner.
	ap := make([]float64, ls*ls)
	for s := 0; s < ls; s++ {
		ap[s*ls+s] = p.a
		if s > 0 {
			ap[s*ls+s-1] = p.c
		}
	}
	ap[0*ls+ls-1] += -m.M * p.c
	inv, err := linalg.InvReal(ls, ap)
	if err != nil {
		return nil, fmt.Errorf("dirac: fifth-dimension operator singular (a=%g, c=%g, m=%g): %w", p.a, p.c, m.M, err)
	}
	p.minvP = inv
	p.minvM = linalg.TransposeReal(ls, inv)
	p.nbr, p.link = hopTables(p.EO)
	p.newScratch()
	return p, nil
}

// Fork returns a scratch-only copy of p for another goroutine. The copy
// shares everything immutable - the gauge field, the even-odd geometry,
// the neighbour and link tables and the fifth-dimension inverses - and
// owns only its t1..t3 buffers and its Wilson kernel settings, so forks
// of one operator apply concurrently and each gives p's bits.
func (p *MobiusEO) Fork() *MobiusEO {
	f := *p
	f.M = p.M.Fork()
	f.newScratch()
	return &f
}

func (p *MobiusEO) newScratch() {
	n := p.HalfSize()
	p.t1 = make([]complex128, n)
	p.t2 = make([]complex128, n)
	p.t3 = make([]complex128, n)
}

// HalfVol returns the number of 4-D sites per parity block.
func (p *MobiusEO) HalfVol() int { return p.EO.HalfVol() }

// HalfSize returns the component count of a half-volume 5-D field.
func (p *MobiusEO) HalfSize() int { return p.M.Ls * p.HalfVol() * SpinorLen }

// Size implements the solver operator interface on half fields.
func (p *MobiusEO) Size() int { return p.HalfSize() }

// hopTables builds the even-odd neighbour and link index tables of
// MobiusEO.nbr and MobiusEO.link.
func hopTables(eo *lattice.EvenOdd) (nbr, link [2][]int32) {
	g := eo.G
	hv := eo.HalfVol()
	for par := 0; par < 2; par++ {
		nbr[par] = make([]int32, hv*HopDirs)
		link[par] = make([]int32, hv*HopDirs)
		for i := 0; i < hv; i++ {
			lex := int(eo.EOToLex[par][i])
			for mu := 0; mu < lattice.NDim; mu++ {
				k := i*HopDirs + 2*mu
				fw, bw := g.Fwd(lex, mu), g.Bwd(lex, mu)
				nbr[par][k], link[par][k] = eo.LexToEO[fw], int32(lex)
				nbr[par][k+1], link[par][k+1] = eo.LexToEO[bw], int32(bw)
			}
		}
	}
	return nbr, link
}

// hopHalf applies the parity-flipping Wilson hopping term (including its
// -1/2) to every fifth-dimension slice: dst, of parity pOut, receives the
// stencil of src, of parity 1-pOut. dst is overwritten. The fifth
// dimension is innermost: each site zeroes its Ls outputs, then looks up
// each direction's neighbour and link once and applies them to all Ls
// slices.
func (p *MobiusEO) hopHalf(dst, src []complex128, pOut int) {
	stride := p.HalfVol() * SpinorLen
	n5 := p.M.Ls * stride
	nbr, link := p.nbr[pOut], p.link[pOut]
	u := &p.M.W.U.U
	linalg.ForBlocked(p.HalfVol(), p.M.W.Workers, p.M.W.Block, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := i * SpinorLen
			for off := 0; off < n5; off += stride {
				clear(dst[off+o : off+o+SpinorLen])
			}
			for d := 0; d < HopDirs; d++ {
				j := int(nbr[i*HopDirs+d]) * SpinorLen
				l := &u[d/2][link[i*HopDirs+d]]
				for off := 0; off < n5; off += stride {
					HopSite((*[SpinorLen]complex128)(dst[off+o:off+o+SpinorLen]),
						(*[SpinorLen]complex128)(src[off+j:off+j+SpinorLen]), l, d)
				}
			}
		}
	})
}

// applyB computes dst = (b5 + c5*chi) src, or its dagger, on a half field.
func (p *MobiusEO) applyB(dst, src []complex128, dagger bool) {
	chiApply(dst, src, p.M.Ls, p.HalfVol()*SpinorLen, p.M.M, dagger)
	b5 := complex(p.M.B5, 0)
	c5 := complex(p.M.C5, 0)
	linalg.For(len(src), p.M.W.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = b5*src[i] + c5*dst[i]
		}
	})
}

// applyA computes dst = (a + c*chi) src, or its dagger, on a half field.
func (p *MobiusEO) applyA(dst, src []complex128, dagger bool) {
	chiApply(dst, src, p.M.Ls, p.HalfVol()*SpinorLen, p.M.M, dagger)
	a := complex(p.a, 0)
	c := complex(p.c, 0)
	linalg.For(len(src), p.M.W.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = a*src[i] + c*dst[i]
		}
	})
}

// applyAInv computes dst = A^{-1} src (or A^{-dagger} src) on a half field
// via the precomputed dense fifth-dimension inverses. dst must not alias
// src.
func (p *MobiusEO) applyAInv(dst, src []complex128, dagger bool) {
	mP, mM := p.minvP, p.minvM
	if dagger {
		mP, mM = p.minvM, p.minvP
	}
	ls := p.M.Ls
	hv := p.HalfVol()
	stride := hv * SpinorLen
	linalg.For(hv, p.M.W.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := i * SpinorLen
			for comp := 0; comp < SpinorLen; comp++ {
				m := mP
				if comp >= 6 {
					m = mM
				}
				for sOut := 0; sOut < ls; sOut++ {
					var acc complex128
					row := m[sOut*ls : (sOut+1)*ls]
					for sIn := 0; sIn < ls; sIn++ {
						if row[sIn] == 0 {
							continue
						}
						acc += complex(row[sIn], 0) * src[sIn*stride+base+comp]
					}
					dst[sOut*stride+base+comp] = acc
				}
			}
		}
	})
}

// gamma5Half applies gamma_5 to a half field in place (dst may alias src).
func gamma5Half(dst, src []complex128) { Gamma5(dst, src) }

// Apply computes dst = Dhat src on an even half field (the solver-facing
// operator application).
func (p *MobiusEO) Apply(dst, src []complex128) {
	if len(dst) != p.HalfSize() || len(src) != p.HalfSize() {
		panic("dirac: MobiusEO.Apply size mismatch")
	}
	p.applyB(p.t1, src, false)     // t1 = B x_e
	p.hopHalf(p.t2, p.t1, 1)       // t2_o = Hop_oe t1
	p.applyAInv(p.t1, p.t2, false) // t1_o = A^{-1} t2
	p.applyB(p.t2, p.t1, false)    // t2 = B t1
	p.hopHalf(p.t3, p.t2, 0)       // t3_e = Hop_eo t2
	p.applyA(dst, src, false)      // dst = A x_e
	linalg.Axpy(-1, p.t3, dst, p.M.W.Workers)
}

// ApplyDagger computes dst = Dhat^dagger src using
// K^dag = B^dag o (gamma_5 Hop gamma_5) and A^{-dag} = transposed M5inv.
func (p *MobiusEO) ApplyDagger(dst, src []complex128) {
	if len(dst) != p.HalfSize() || len(src) != p.HalfSize() {
		panic("dirac: MobiusEO.ApplyDagger size mismatch")
	}
	gamma5Half(p.t1, src)         // t1 = g5 x_e
	p.hopHalf(p.t2, p.t1, 1)      // t2_o = Hop_oe t1
	gamma5Half(p.t2, p.t2)        // t2 = g5 t2
	p.applyB(p.t1, p.t2, true)    // t1 = B^dag t2   (= K_eo^dag x)
	p.applyAInv(p.t2, p.t1, true) // t2 = A^{-dag} t1
	gamma5Half(p.t1, p.t2)        // t1 = g5 t2
	p.hopHalf(p.t3, p.t1, 0)      // t3_e = Hop_eo t1
	gamma5Half(p.t3, p.t3)        // t3 = g5 t3
	p.applyB(p.t1, p.t3, true)    // t1 = B^dag t3   (= K_oe^dag ...)
	p.applyA(dst, src, true)      // dst = A^dag x_e
	linalg.Axpy(-1, p.t1, dst, p.M.W.Workers)
}

// ApplyNormal computes dst = Dhat^dagger Dhat src, the operator of the
// conjugate-gradient normal equations. tmp must be a caller-provided
// half-field buffer distinct from dst and src.
func (p *MobiusEO) ApplyNormal(dst, src, tmp []complex128) {
	p.Apply(tmp, src)
	p.ApplyDagger(dst, tmp)
}

// GatherParity5D splits a full lexicographic 5-D field into a half field
// of the requested parity, slice by slice.
func (p *MobiusEO) GatherParity5D(parity int, full []complex128, half []complex128) {
	if len(full) != p.M.Size() || len(half) != p.HalfSize() {
		panic("dirac: GatherParity5D size mismatch")
	}
	v4 := p.M.W.G.Vol * SpinorLen
	h4 := p.HalfVol() * SpinorLen
	for s := 0; s < p.M.Ls; s++ {
		p.EO.GatherParity(parity, full[s*v4:(s+1)*v4], SpinorLen, half[s*h4:(s+1)*h4])
	}
}

// ScatterParity5D writes a half field back into a full lexicographic 5-D
// field, slice by slice.
func (p *MobiusEO) ScatterParity5D(parity int, half []complex128, full []complex128) {
	if len(full) != p.M.Size() || len(half) != p.HalfSize() {
		panic("dirac: ScatterParity5D size mismatch")
	}
	v4 := p.M.W.G.Vol * SpinorLen
	h4 := p.HalfVol() * SpinorLen
	for s := 0; s < p.M.Ls; s++ {
		p.EO.ScatterParity(parity, half[s*h4:(s+1)*h4], SpinorLen, full[s*v4:(s+1)*v4])
	}
}

// PrepareSource reduces the full system D psi = eta to the even Schur
// system Dhat psi_e = bhat, returning bhat and the saved odd source
// needed by Reconstruct. Derivation: psi_o = A^{-1}(eta_o - K_oe psi_e),
// so bhat = eta_e - K_eo A^{-1} eta_o.
func (p *MobiusEO) PrepareSource(eta []complex128) (bhat, etaOdd []complex128) {
	bhat = make([]complex128, p.HalfSize())
	etaOdd = make([]complex128, p.HalfSize())
	p.GatherParity5D(0, eta, bhat)   // bhat = eta_e
	p.GatherParity5D(1, eta, etaOdd) // saved for reconstruction
	p.applyAInv(p.t1, etaOdd, false) // t1 = A^{-1} eta_o
	p.applyB(p.t2, p.t1, false)
	p.hopHalf(p.t3, p.t2, 0) // t3 = K_eo A^{-1} eta_o
	linalg.Axpy(-1, p.t3, bhat, p.M.W.Workers)
	return bhat, etaOdd
}

// Reconstruct rebuilds the full-lattice solution from the even solution
// and the saved odd source: psi_o = A^{-1}(eta_o - K_oe psi_e).
func (p *MobiusEO) Reconstruct(psiEven, etaOdd []complex128) []complex128 {
	p.applyB(p.t1, psiEven, false)
	p.hopHalf(p.t2, p.t1, 1) // t2 = K_oe psi_e
	linalg.AxpyZ(-1, p.t2, etaOdd, p.t3, p.M.W.Workers)
	p.applyAInv(p.t1, p.t3, false) // t1 = psi_o
	full := make([]complex128, p.M.Size())
	p.ScatterParity5D(0, psiEven, full)
	p.ScatterParity5D(1, p.t1, full)
	return full
}

// FlopsPerApply returns the flop count of one Schur-operator application
// in the paper's accounting: two Wilson hopping applications over Ls
// slices plus the fifth-dimension B, A and M5inv arithmetic.
func (p *MobiusEO) FlopsPerApply() int64 {
	hv := int64(p.HalfVol())
	ls := int64(p.M.Ls)
	hop := 2 * hv * ls * WilsonFlopsPerSite
	bAndA := 3 * hv * ls * SpinorLen * 8 // three elementwise chi+axpy passes
	m5inv := hv * ls * ls * SpinorLen * 8
	return hop + bAndA + m5inv
}

// PaperFlopsPerSite5D returns the per-5-D-site flop count of one normal
// equation CG iteration (two Schur applications plus BLAS-1), which lands
// in the paper's quoted 10,000-12,000 range for production Ls.
func (p *MobiusEO) PaperFlopsPerSite5D() float64 {
	perApply := float64(p.FlopsPerApply()) / float64(p.HalfVol()*p.M.Ls)
	blas := 100.0 // paper: 50-100 flops/site of BLAS-1 per iteration
	return 2*perApply + blas
}
