package dirac

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"femtoverse/internal/gauge"
	"femtoverse/internal/lattice"
	"femtoverse/internal/linalg"
)

// hash128 returns the SHA-256 of the IEEE bit patterns of a field.
func hash128(v []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, z := range v {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(z)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(z)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hash64 is hash128 for single-precision fields.
func hash64(v []complex64) string {
	h := sha256.New()
	var b [8]byte
	for _, z := range v {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(real(z)))
		binary.LittleEndian.PutUint32(b[4:], math.Float32bits(imag(z)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bitPinHashes applies every operator that runs the hopping kernel to
// seeded random inputs and hashes the exact output bits.
func bitPinHashes(t *testing.T, dims [lattice.NDim]int, ls int) map[string]string {
	t.Helper()
	g, err := lattice.New(dims)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gauge.NewRandom(g, 1810)
	rng := rand.New(rand.NewSource(1601))
	out := map[string]string{}

	w := NewWilson(cfg, -1.4)
	src := randField(rng, w.Size())
	dst := make([]complex128, w.Size())
	w.Apply(dst, src)
	out["Wilson.Apply"] = hash128(dst)

	m, err := NewMobius(cfg, MobiusParams{Ls: ls, M5: 1.4, B5: 1.25, C5: 0.25, M: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewMobiusEO(m)
	if err != nil {
		t.Fatal(err)
	}
	x := randField(rng, p.HalfSize())
	y := make([]complex128, p.HalfSize())
	p.Apply(y, x)
	out["MobiusEO.Apply"] = hash128(y)
	p.ApplyDagger(y, x)
	out["MobiusEO.ApplyDagger"] = hash128(y)

	q := NewMobiusEO32(p)
	x32 := make([]complex64, len(x))
	linalg.Demote(x32, x)
	y32 := make([]complex64, len(x))
	q.Apply(y32, x32)
	out["MobiusEO32.Apply"] = hash64(y32)
	q.ApplyDagger(y32, x32)
	out["MobiusEO32.ApplyDagger"] = hash64(y32)
	return out
}

// TestKernelBitPin pins the exact output bits of every operator built on
// the hopping kernel. The expected hashes were recorded from the earlier
// kernels that multiplied by general complex gamma phases; the
// direction-table kernel must reproduce them bit for bit on amd64, where
// Go does not fuse multiply-adds.
func TestKernelBitPin(t *testing.T) {
	cases := []struct {
		dims [lattice.NDim]int
		ls   int
		want map[string]string
	}{
		{[lattice.NDim]int{2, 2, 2, 8}, 4, map[string]string{
			"Wilson.Apply":           "3f163902c45ab578b766a75aaba084ede957a9a1bf8875f68dc300c9a953eab7",
			"MobiusEO.Apply":         "99168d722315d5ad745b034fa849d813f42dfa9666d13031394b28f5832eecfc",
			"MobiusEO.ApplyDagger":   "b3c9f5b855c5337617d22da3807951db7efcb80e37f06e9e67c8a30d19e6c669",
			"MobiusEO32.Apply":       "05552391bf6bbf6502910c63e813d18756e2105fbc41e7ec0e2cf2a32710f0b5",
			"MobiusEO32.ApplyDagger": "03dee01e16985c3e21d6328b37083b3ca3e29db145ed96f192dbcaade9ad3570",
		}},
		{[lattice.NDim]int{4, 4, 4, 8}, 6, map[string]string{
			"Wilson.Apply":           "17337adbf9c84929b9579340152f88df0da6610eac5b13be1247b9ee5075fb9d",
			"MobiusEO.Apply":         "ec1ab54c4704857789d6f7305813822747b67101a1f86754e23b27ee7c5ac670",
			"MobiusEO.ApplyDagger":   "51c4332b4d49a7161b820be38b9e240bccf5f19423fd5ff4b1da0cb773091801",
			"MobiusEO32.Apply":       "676027a92d65bf77f72157f62238469d5d63375fe6b005ab7fce23c53ad8e21c",
			"MobiusEO32.ApplyDagger": "d2d47312a0851f6728322c8ec53aff435c47b8c02867373a00c1b4e86d350ae3",
		}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v_Ls%d", tc.dims, tc.ls), func(t *testing.T) {
			got := bitPinHashes(t, tc.dims, tc.ls)
			for k, want := range tc.want {
				if got[k] != want {
					t.Errorf("%s output bits changed: hash %s, want %s", k, got[k], want)
				}
			}
		})
	}
}
