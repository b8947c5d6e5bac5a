package dirac

import (
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// SpinorLen is the number of complex components per 4-D site (Ns*Nc).
const SpinorLen = 12

// WilsonFlopsPerSite is the community-standard flop count for one Wilson
// dslash application per 4-D site (the convention the paper's FLOP
// reporting uses).
const WilsonFlopsPerSite = 1320

// Wilson is the 4-D Wilson Dirac operator D = (4 + Mass) - (1/2) * hopping.
// For the domain-wall kernel the mass is the negative domain-wall height
// -M5. Apply is safe for concurrent use; the parallelism is internal.
type Wilson struct {
	G       *lattice.Geometry
	U       *gauge.Field
	Mass    float64
	Workers int // goroutine count for the site loop; <= 0 means default
	// Block is the work-stealing block size in sites (<= 0 = static
	// chunking); with Workers it forms the autotuner's launch space.
	Block int
}

// NewWilson constructs a Wilson operator over the given gauge field.
func NewWilson(u *gauge.Field, mass float64) *Wilson {
	return &Wilson{G: u.G, U: u, Mass: mass}
}

// Size returns the number of complex components in a compatible field.
func (w *Wilson) Size() int { return w.G.Vol * SpinorLen }

// Apply computes dst = D src on a full (both-parity) 4-D field.
func (w *Wilson) Apply(dst, src []complex128) {
	if len(dst) != w.Size() || len(src) != w.Size() {
		panic("dirac: Wilson.Apply size mismatch")
	}
	diag := complex(4+w.Mass, 0)
	g := w.G
	linalg.ForBlocked(g.Vol, w.Workers, w.Block, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			out := (*[SpinorLen]complex128)(dst[s*SpinorLen : (s+1)*SpinorLen])
			in := (*[SpinorLen]complex128)(src[s*SpinorLen : (s+1)*SpinorLen])
			for i := range out {
				out[i] = diag * in[i]
			}
			for mu := 0; mu < lattice.NDim; mu++ {
				fw := g.Fwd(s, mu)
				HopSite(out, (*[SpinorLen]complex128)(src[fw*SpinorLen:(fw+1)*SpinorLen]), &w.U.U[mu][s], 2*mu)
				bw := g.Bwd(s, mu)
				HopSite(out, (*[SpinorLen]complex128)(src[bw*SpinorLen:(bw+1)*SpinorLen]), &w.U.U[mu][bw], 2*mu+1)
			}
		}
	})
}

// ApplyDagger computes dst = D^dagger src using the gamma_5 hermiticity
// D^dagger = gamma_5 D gamma_5 of the Wilson operator.
func (w *Wilson) ApplyDagger(dst, src []complex128) {
	tmp := make([]complex128, len(src))
	Gamma5(tmp, src)
	w.Apply(dst, tmp)
	Gamma5(dst, dst)
}

// Flops returns the flop count of one Apply in the standard convention.
func (w *Wilson) Flops() int64 { return int64(w.G.Vol) * WilsonFlopsPerSite }

// Gamma5 computes dst = gamma_5 src on a 4-D field (diagonal in the
// DeGrand-Rossi basis: spins 0,1 keep sign, spins 2,3 flip). dst and src
// may alias.
func Gamma5(dst, src []complex128) {
	if len(dst) != len(src) || len(src)%SpinorLen != 0 {
		panic("dirac: Gamma5 size mismatch")
	}
	n := len(src) / SpinorLen
	linalg.For(n, 0, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			base := s * SpinorLen
			for i := 0; i < 6; i++ {
				dst[base+i] = src[base+i]
			}
			for i := 6; i < 12; i++ {
				dst[base+i] = -src[base+i]
			}
		}
	})
}

// ApplyDense is a reference implementation of the Wilson operator that
// multiplies by the dense per-link (1 +- gamma_mu) (x) U matrices with no
// spin-projection trick. It exists purely to validate the fast kernel.
func (w *Wilson) ApplyDense(dst, src []complex128) {
	if len(dst) != w.Size() || len(src) != w.Size() {
		panic("dirac: ApplyDense size mismatch")
	}
	g := w.G
	diag := complex(4+w.Mass, 0)
	id := linalg.SpinIdentity()
	for s := 0; s < g.Vol; s++ {
		out := dst[s*SpinorLen : (s+1)*SpinorLen]
		in := src[s*SpinorLen : (s+1)*SpinorLen]
		for i := range out {
			out[i] = diag * in[i]
		}
		for mu := 0; mu < lattice.NDim; mu++ {
			gm := linalg.Gamma(mu)
			projM := id.AddSM(gm.ScaleSM(-1)) // 1 - gamma_mu
			projP := id.AddSM(gm)             // 1 + gamma_mu
			fw := g.Fwd(s, mu)
			denseHop(out, src[fw*SpinorLen:(fw+1)*SpinorLen], projM, w.U.U[mu][s], false)
			bw := g.Bwd(s, mu)
			denseHop(out, src[bw*SpinorLen:(bw+1)*SpinorLen], projP, w.U.U[mu][bw], true)
		}
	}
}

func denseHop(out, in []complex128, proj linalg.SpinMatrix, u linalg.SU3, adjoint bool) {
	um := u
	if adjoint {
		um = u.Adj()
	}
	for sp := 0; sp < 4; sp++ {
		for c := 0; c < 3; c++ {
			var acc complex128
			for sp2 := 0; sp2 < 4; sp2++ {
				if proj[sp][sp2] == 0 {
					continue
				}
				var cv complex128
				for c2 := 0; c2 < 3; c2++ {
					cv += um[c][c2] * in[sp2*3+c2]
				}
				acc += proj[sp][sp2] * cv
			}
			out[sp*3+c] -= 0.5 * acc
		}
	}
}
