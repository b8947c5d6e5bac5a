package dirac

import (
	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// SU3C64 is a single-precision SU(3) link, the storage type of the inner
// mixed-precision solver stage.
type SU3C64 [3][3]complex64

// GaugeC64 is a single-precision copy of a gauge field.
type GaugeC64 struct {
	G *lattice.Geometry
	U [lattice.NDim][]SU3C64
}

// DemoteGauge converts a double-precision gauge field to single precision
// once; the inner solver reuses the copy across all its iterations.
func DemoteGauge(f *gauge.Field) *GaugeC64 {
	d := &GaugeC64{G: f.G}
	for mu := 0; mu < lattice.NDim; mu++ {
		d.U[mu] = make([]SU3C64, len(f.U[mu]))
		for s, m := range f.U[mu] {
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					d.U[mu][s][i][j] = complex(float32(real(m[i][j])), float32(imag(m[i][j])))
				}
			}
		}
	}
	return d
}

// Gamma5C64 computes dst = gamma_5 src in single precision; may alias.
func Gamma5C64(dst, src []complex64) {
	if len(dst) != len(src) || len(src)%SpinorLen != 0 {
		panic("dirac: Gamma5C64 size mismatch")
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
