package dirac

import (
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// HopDirs is the number of hopping directions per site. Direction
// d = 2*mu + b is the forward hop along mu for b = 0 and the backward hop
// for b = 1; the Wilson stencil accumulates them in order d = 0..7.
const HopDirs = 2 * lattice.NDim

// hopDir is one entry of the direction table. The hop through direction
// d multiplies by (1 + sign*gamma_mu), which has rank two: each upper
// spin k = 0, 1 is projected with its partner spin GammaPerm[mu][k]
// times sign*GammaPhase[mu][k]. In the DeGrand-Rossi basis that factor
// is +-1 (real) or +-i (imaginary), so it is stored as a sign and a swap
// flag and applied as exact sign flips and real/imaginary swaps instead
// of general complex multiplies.
type hopDir struct {
	// p[k] is the component offset (3*spin) of upper spin k's partner.
	p [2]int
	// s[k] is the sign of sign*GammaPhase[mu][k]; sf[k] is the same in
	// single precision.
	s  [2]float64
	sf [2]float32
	// swap is set when the phases are imaginary (+-i).
	swap bool
	// adj selects U^dagger: the backward hop.
	adj bool
}

// hopDirs is the direction table, derived once from linalg's gamma
// tables.
var hopDirs = func() (t [HopDirs]hopDir) {
	for d := range t {
		mu := d / 2
		sign := complex(-1, 0)
		if d%2 == 1 {
			sign = 1
		}
		e := &t[d]
		e.swap = real(linalg.GammaPhase[mu][0]) == 0
		e.adj = d%2 == 1
		for k := 0; k < 2; k++ {
			ph := sign * linalg.GammaPhase[mu][k]
			if (real(ph) == 0) != e.swap {
				panic("dirac: gamma phases of one direction must both be real or both imaginary")
			}
			e.p[k] = 3 * linalg.GammaPerm[mu][k]
			e.s[k] = real(ph) + imag(ph)
			e.sf[k] = float32(e.s[k])
		}
	}
	return t
}()

// HopSite accumulates the hopping term of direction d (see HopDirs) into
// the spinor out:
//
//	out += -1/2 (1 - gamma_mu) U in       (d = 2*mu,   U = U_mu(x))
//	out += -1/2 (1 + gamma_mu) U^dag in   (d = 2*mu+1, U = U_mu(x-mu))
//
// where in is the neighbouring spinor in that direction. For each of
// the two upper spins it projects to one colour vector, multiplies it by
// the link and reconstructs the partner spin - QUDA's matrix-free
// stencil in scalar form. The two halves touch disjoint output
// components, so running them one after the other keeps only one
// half-spinor live, in scalar locals the compiler holds in registers.
// The floating-point operations are exactly those of the general
// complex-phase formulation, in the same order, so the result is the
// same bit for bit. The running sum over the eight directions is the
// caller's: each output component must see d = 0..7 in order.
func HopSite(out, in *[SpinorLen]complex128, u *linalg.SU3, d int) {
	t := &hopDirs[d]
	for k := 0; k < 2; k++ {
		s := t.s[k]
		up := (*[3]complex128)(in[3*k : 3*k+3])
		pa := (*[3]complex128)(in[t.p[k] : t.p[k]+3])

		// Spin projection: h = in_k + ph*in_p.
		var hr0, hi0, hr1, hi1, hr2, hi2 float64
		if t.swap {
			hr0, hi0 = real(up[0])-s*imag(pa[0]), imag(up[0])+s*real(pa[0])
			hr1, hi1 = real(up[1])-s*imag(pa[1]), imag(up[1])+s*real(pa[1])
			hr2, hi2 = real(up[2])-s*imag(pa[2]), imag(up[2])+s*real(pa[2])
		} else {
			hr0, hi0 = real(up[0])+s*real(pa[0]), imag(up[0])+s*imag(pa[0])
			hr1, hi1 = real(up[1])+s*real(pa[1]), imag(up[1])+s*imag(pa[1])
			hr2, hi2 = real(up[2])+s*real(pa[2]), imag(up[2])+s*imag(pa[2])
		}

		// Colour multiply, U h or U^dag h, summing j = 0, 1, 2 in turn as
		// linalg.SU3.MulVec and AdjMulVec do; AdjMulVec's sums start from
		// zero.
		var r0, i0, r1, i1, r2, i2 float64
		if t.adj {
			r0 = 0 + (real(u[0][0])*hr0 + imag(u[0][0])*hi0) + (real(u[1][0])*hr1 + imag(u[1][0])*hi1) + (real(u[2][0])*hr2 + imag(u[2][0])*hi2)
			i0 = 0 + (real(u[0][0])*hi0 - imag(u[0][0])*hr0) + (real(u[1][0])*hi1 - imag(u[1][0])*hr1) + (real(u[2][0])*hi2 - imag(u[2][0])*hr2)
			r1 = 0 + (real(u[0][1])*hr0 + imag(u[0][1])*hi0) + (real(u[1][1])*hr1 + imag(u[1][1])*hi1) + (real(u[2][1])*hr2 + imag(u[2][1])*hi2)
			i1 = 0 + (real(u[0][1])*hi0 - imag(u[0][1])*hr0) + (real(u[1][1])*hi1 - imag(u[1][1])*hr1) + (real(u[2][1])*hi2 - imag(u[2][1])*hr2)
			r2 = 0 + (real(u[0][2])*hr0 + imag(u[0][2])*hi0) + (real(u[1][2])*hr1 + imag(u[1][2])*hi1) + (real(u[2][2])*hr2 + imag(u[2][2])*hi2)
			i2 = 0 + (real(u[0][2])*hi0 - imag(u[0][2])*hr0) + (real(u[1][2])*hi1 - imag(u[1][2])*hr1) + (real(u[2][2])*hi2 - imag(u[2][2])*hr2)
		} else {
			r0 = (real(u[0][0])*hr0 - imag(u[0][0])*hi0) + (real(u[0][1])*hr1 - imag(u[0][1])*hi1) + (real(u[0][2])*hr2 - imag(u[0][2])*hi2)
			i0 = (real(u[0][0])*hi0 + imag(u[0][0])*hr0) + (real(u[0][1])*hi1 + imag(u[0][1])*hr1) + (real(u[0][2])*hi2 + imag(u[0][2])*hr2)
			r1 = (real(u[1][0])*hr0 - imag(u[1][0])*hi0) + (real(u[1][1])*hr1 - imag(u[1][1])*hi1) + (real(u[1][2])*hr2 - imag(u[1][2])*hi2)
			i1 = (real(u[1][0])*hi0 + imag(u[1][0])*hr0) + (real(u[1][1])*hi1 + imag(u[1][1])*hr1) + (real(u[1][2])*hi2 + imag(u[1][2])*hr2)
			r2 = (real(u[2][0])*hr0 - imag(u[2][0])*hi0) + (real(u[2][1])*hr1 - imag(u[2][1])*hi1) + (real(u[2][2])*hr2 - imag(u[2][2])*hi2)
			i2 = (real(u[2][0])*hi0 + imag(u[2][0])*hr0) + (real(u[2][1])*hi1 + imag(u[2][1])*hr1) + (real(u[2][2])*hi2 + imag(u[2][2])*hr2)
		}

		// Reconstruction with the -1/2: the upper spin takes -v/2, the
		// partner spin -conj(ph)*v/2, i.e. a sign flip (real phase) or a
		// sign flip and swap (imaginary phase) of the same halved product.
		r0, i0, r1, i1, r2, i2 = 0.5*r0, 0.5*i0, 0.5*r1, 0.5*i1, 0.5*r2, 0.5*i2
		ou := (*[3]complex128)(out[3*k : 3*k+3])
		ou[0] = complex(real(ou[0])-r0, imag(ou[0])-i0)
		ou[1] = complex(real(ou[1])-r1, imag(ou[1])-i1)
		ou[2] = complex(real(ou[2])-r2, imag(ou[2])-i2)
		op := (*[3]complex128)(out[t.p[k] : t.p[k]+3])
		if t.swap {
			op[0] = complex(real(op[0])-s*i0, imag(op[0])+s*r0)
			op[1] = complex(real(op[1])-s*i1, imag(op[1])+s*r1)
			op[2] = complex(real(op[2])-s*i2, imag(op[2])+s*r2)
		} else {
			op[0] = complex(real(op[0])-s*r0, imag(op[0])-s*i0)
			op[1] = complex(real(op[1])-s*r1, imag(op[1])-s*i1)
			op[2] = complex(real(op[2])-s*r2, imag(op[2])-s*i2)
		}
	}
}

// hopSite32 is HopSite in single precision. Every operation is float32:
// the Go compiler lowers complex64 multiplication through complex128,
// which costs more than 2x here, so complex values are only loaded and
// stored. Both colour-multiply variants sum from zero.
func hopSite32(out, in *[SpinorLen]complex64, u *SU3C64, d int) {
	t := &hopDirs[d]
	for k := 0; k < 2; k++ {
		s := t.sf[k]
		up := (*[3]complex64)(in[3*k : 3*k+3])
		pa := (*[3]complex64)(in[t.p[k] : t.p[k]+3])

		var hr0, hi0, hr1, hi1, hr2, hi2 float32
		if t.swap {
			hr0, hi0 = real(up[0])-s*imag(pa[0]), imag(up[0])+s*real(pa[0])
			hr1, hi1 = real(up[1])-s*imag(pa[1]), imag(up[1])+s*real(pa[1])
			hr2, hi2 = real(up[2])-s*imag(pa[2]), imag(up[2])+s*real(pa[2])
		} else {
			hr0, hi0 = real(up[0])+s*real(pa[0]), imag(up[0])+s*imag(pa[0])
			hr1, hi1 = real(up[1])+s*real(pa[1]), imag(up[1])+s*imag(pa[1])
			hr2, hi2 = real(up[2])+s*real(pa[2]), imag(up[2])+s*imag(pa[2])
		}

		var r0, i0, r1, i1, r2, i2 float32
		if t.adj {
			r0 = 0 + (real(u[0][0])*hr0 + imag(u[0][0])*hi0) + (real(u[1][0])*hr1 + imag(u[1][0])*hi1) + (real(u[2][0])*hr2 + imag(u[2][0])*hi2)
			i0 = 0 + (real(u[0][0])*hi0 - imag(u[0][0])*hr0) + (real(u[1][0])*hi1 - imag(u[1][0])*hr1) + (real(u[2][0])*hi2 - imag(u[2][0])*hr2)
			r1 = 0 + (real(u[0][1])*hr0 + imag(u[0][1])*hi0) + (real(u[1][1])*hr1 + imag(u[1][1])*hi1) + (real(u[2][1])*hr2 + imag(u[2][1])*hi2)
			i1 = 0 + (real(u[0][1])*hi0 - imag(u[0][1])*hr0) + (real(u[1][1])*hi1 - imag(u[1][1])*hr1) + (real(u[2][1])*hi2 - imag(u[2][1])*hr2)
			r2 = 0 + (real(u[0][2])*hr0 + imag(u[0][2])*hi0) + (real(u[1][2])*hr1 + imag(u[1][2])*hi1) + (real(u[2][2])*hr2 + imag(u[2][2])*hi2)
			i2 = 0 + (real(u[0][2])*hi0 - imag(u[0][2])*hr0) + (real(u[1][2])*hi1 - imag(u[1][2])*hr1) + (real(u[2][2])*hi2 - imag(u[2][2])*hr2)
		} else {
			r0 = 0 + (real(u[0][0])*hr0 - imag(u[0][0])*hi0) + (real(u[0][1])*hr1 - imag(u[0][1])*hi1) + (real(u[0][2])*hr2 - imag(u[0][2])*hi2)
			i0 = 0 + (real(u[0][0])*hi0 + imag(u[0][0])*hr0) + (real(u[0][1])*hi1 + imag(u[0][1])*hr1) + (real(u[0][2])*hi2 + imag(u[0][2])*hr2)
			r1 = 0 + (real(u[1][0])*hr0 - imag(u[1][0])*hi0) + (real(u[1][1])*hr1 - imag(u[1][1])*hi1) + (real(u[1][2])*hr2 - imag(u[1][2])*hi2)
			i1 = 0 + (real(u[1][0])*hi0 + imag(u[1][0])*hr0) + (real(u[1][1])*hi1 + imag(u[1][1])*hr1) + (real(u[1][2])*hi2 + imag(u[1][2])*hr2)
			r2 = 0 + (real(u[2][0])*hr0 - imag(u[2][0])*hi0) + (real(u[2][1])*hr1 - imag(u[2][1])*hi1) + (real(u[2][2])*hr2 - imag(u[2][2])*hi2)
			i2 = 0 + (real(u[2][0])*hi0 + imag(u[2][0])*hr0) + (real(u[2][1])*hi1 + imag(u[2][1])*hr1) + (real(u[2][2])*hi2 + imag(u[2][2])*hr2)
		}

		r0, i0, r1, i1, r2, i2 = 0.5*r0, 0.5*i0, 0.5*r1, 0.5*i1, 0.5*r2, 0.5*i2
		ou := (*[3]complex64)(out[3*k : 3*k+3])
		ou[0] = complex(real(ou[0])-r0, imag(ou[0])-i0)
		ou[1] = complex(real(ou[1])-r1, imag(ou[1])-i1)
		ou[2] = complex(real(ou[2])-r2, imag(ou[2])-i2)
		op := (*[3]complex64)(out[t.p[k] : t.p[k]+3])
		if t.swap {
			op[0] = complex(real(op[0])-s*i0, imag(op[0])+s*r0)
			op[1] = complex(real(op[1])-s*i1, imag(op[1])+s*r1)
			op[2] = complex(real(op[2])-s*i2, imag(op[2])+s*r2)
		} else {
			op[0] = complex(real(op[0])-s*r0, imag(op[0])-s*i0)
			op[1] = complex(real(op[1])-s*r1, imag(op[1])-s*i1)
			op[2] = complex(real(op[2])-s*r2, imag(op[2])-s*i2)
		}
	}
}
