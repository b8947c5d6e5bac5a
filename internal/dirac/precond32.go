package dirac

import "femtoverse/internal/linalg"

// MobiusEO32 is the single-precision mirror of MobiusEO, the compute stage
// of the paper's "double-half" mixed-precision solver: the gauge field and
// all spinor arithmetic are float32, while the solver layered on top keeps
// its reductions and reliable updates in double precision and can
// additionally round the streamed operands through the 16-bit fixed-point
// storage format.
type MobiusEO32 struct {
	P *MobiusEO // parent: geometry, EO tables, fifth-dimension inverses
	U *GaugeC64

	a, c, b5, c5, m float32
	minvP, minvM    []float32

	t1, t2, t3 []complex64
}

// NewMobiusEO32 demotes a preconditioned operator to single precision.
func NewMobiusEO32(p *MobiusEO) *MobiusEO32 {
	ls := p.M.Ls
	q := &MobiusEO32{
		P:     p,
		U:     DemoteGauge(p.M.W.U),
		a:     float32(p.a),
		c:     float32(p.c),
		b5:    float32(p.M.B5),
		c5:    float32(p.M.C5),
		m:     float32(p.M.M),
		minvP: make([]float32, ls*ls),
		minvM: make([]float32, ls*ls),
	}
	for i, v := range p.minvP {
		q.minvP[i] = float32(v)
	}
	for i, v := range p.minvM {
		q.minvM[i] = float32(v)
	}
	q.newScratch()
	return q
}

// Fork returns a scratch-only copy of q over p, which must be a Fork of
// q.P (or q.P itself): the single-precision gauge field and inverses are
// shared, the t1..t3 buffers are the copy's own, and the kernel width is
// p's.
func (q *MobiusEO32) Fork(p *MobiusEO) *MobiusEO32 {
	if p.M.W.U != q.P.M.W.U {
		panic("dirac: MobiusEO32.Fork over a different gauge field")
	}
	f := *q
	f.P = p
	f.newScratch()
	return &f
}

func (q *MobiusEO32) newScratch() {
	n := q.P.HalfSize()
	q.t1 = make([]complex64, n)
	q.t2 = make([]complex64, n)
	q.t3 = make([]complex64, n)
}

// Size returns the half-field component count.
func (q *MobiusEO32) Size() int { return q.P.HalfSize() }

func (q *MobiusEO32) workers() int { return q.P.M.W.Workers }

// hopHalf mirrors MobiusEO.hopHalf in single precision, over the
// parent's neighbour and link tables.
func (q *MobiusEO32) hopHalf(dst, src []complex64, pOut int) {
	p := q.P
	stride := p.HalfVol() * SpinorLen
	n5 := p.M.Ls * stride
	nbr, link := p.nbr[pOut], p.link[pOut]
	u := &q.U.U
	linalg.For(p.HalfVol(), q.workers(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := i * SpinorLen
			for off := 0; off < n5; off += stride {
				clear(dst[off+o : off+o+SpinorLen])
			}
			for d := 0; d < HopDirs; d++ {
				j := int(nbr[i*HopDirs+d]) * SpinorLen
				l := &u[d/2][link[i*HopDirs+d]]
				for off := 0; off < n5; off += stride {
					hopSite32((*[SpinorLen]complex64)(dst[off+o:off+o+SpinorLen]),
						(*[SpinorLen]complex64)(src[off+j:off+j+SpinorLen]), l, d)
				}
			}
		}
	})
}

// chiApply32 mirrors chiApply in single precision; the boundary weights
// are real, so the scalar multiplies are written in float32 components.
func chiApply32(dst, src []complex64, ls, vol int, mf float32, dagger bool) {
	linalg.For(ls, 0, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			sp := s - 1
			pw := float32(1)
			if dagger {
				sp = s + 1
			}
			if sp < 0 {
				sp, pw = ls-1, -mf
			} else if sp >= ls {
				sp, pw = 0, -mf
			}
			sm := s + 1
			mw := float32(1)
			if dagger {
				sm = s - 1
			}
			if sm >= ls {
				sm, mw = 0, -mf
			} else if sm < 0 {
				sm, mw = ls-1, -mf
			}
			d := dst[s*vol : (s+1)*vol]
			up := src[sp*vol : (sp+1)*vol]
			dn := src[sm*vol : (sm+1)*vol]
			for site := 0; site < vol; site += SpinorLen {
				for i := 0; i < 6; i++ {
					v := up[site+i]
					d[site+i] = complex(pw*real(v), pw*imag(v))
				}
				for i := 6; i < 12; i++ {
					v := dn[site+i]
					d[site+i] = complex(mw*real(v), mw*imag(v))
				}
			}
		}
	})
}

func (q *MobiusEO32) applyB(dst, src []complex64, dagger bool) {
	chiApply32(dst, src, q.P.M.Ls, q.P.HalfVol()*SpinorLen, q.m, dagger)
	b5, c5 := q.b5, q.c5
	linalg.For(len(src), q.workers(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s, d := src[i], dst[i]
			dst[i] = complex(b5*real(s)+c5*real(d), b5*imag(s)+c5*imag(d))
		}
	})
}

func (q *MobiusEO32) applyA(dst, src []complex64, dagger bool) {
	chiApply32(dst, src, q.P.M.Ls, q.P.HalfVol()*SpinorLen, q.m, dagger)
	a, c := q.a, q.c
	linalg.For(len(src), q.workers(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s, d := src[i], dst[i]
			dst[i] = complex(a*real(s)+c*real(d), a*imag(s)+c*imag(d))
		}
	})
}

func (q *MobiusEO32) applyAInv(dst, src []complex64, dagger bool) {
	mP, mM := q.minvP, q.minvM
	if dagger {
		mP, mM = q.minvM, q.minvP
	}
	ls := q.P.M.Ls
	hv := q.P.HalfVol()
	stride := hv * SpinorLen
	linalg.For(hv, q.workers(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := i * SpinorLen
			for comp := 0; comp < SpinorLen; comp++ {
				m := mP
				if comp >= 6 {
					m = mM
				}
				for sOut := 0; sOut < ls; sOut++ {
					var accR, accI float32
					row := m[sOut*ls : (sOut+1)*ls]
					for sIn := 0; sIn < ls; sIn++ {
						w := row[sIn]
						if w == 0 {
							continue
						}
						v := src[sIn*stride+base+comp]
						accR += w * real(v)
						accI += w * imag(v)
					}
					dst[sOut*stride+base+comp] = complex(accR, accI)
				}
			}
		}
	})
}

// Apply computes dst = Dhat src in single precision.
func (q *MobiusEO32) Apply(dst, src []complex64) {
	if len(dst) != q.Size() || len(src) != q.Size() {
		panic("dirac: MobiusEO32.Apply size mismatch")
	}
	q.applyB(q.t1, src, false)
	q.hopHalf(q.t2, q.t1, 1)
	q.applyAInv(q.t1, q.t2, false)
	q.applyB(q.t2, q.t1, false)
	q.hopHalf(q.t3, q.t2, 0)
	q.applyA(dst, src, false)
	linalg.AxpyC64(-1, q.t3, dst, q.workers())
}

// ApplyDagger computes dst = Dhat^dagger src in single precision.
func (q *MobiusEO32) ApplyDagger(dst, src []complex64) {
	if len(dst) != q.Size() || len(src) != q.Size() {
		panic("dirac: MobiusEO32.ApplyDagger size mismatch")
	}
	Gamma5C64(q.t1, src)
	q.hopHalf(q.t2, q.t1, 1)
	Gamma5C64(q.t2, q.t2)
	q.applyB(q.t1, q.t2, true)
	q.applyAInv(q.t2, q.t1, true)
	Gamma5C64(q.t1, q.t2)
	q.hopHalf(q.t3, q.t1, 0)
	Gamma5C64(q.t3, q.t3)
	q.applyB(q.t1, q.t3, true)
	q.applyA(dst, src, true)
	linalg.AxpyC64(-1, q.t1, dst, q.workers())
}

// ApplyNormal computes dst = Dhat^dag Dhat src in single precision; tmp
// must be caller-provided and distinct from dst and src.
func (q *MobiusEO32) ApplyNormal(dst, src, tmp []complex64) {
	q.Apply(tmp, src)
	q.ApplyDagger(dst, tmp)
}
