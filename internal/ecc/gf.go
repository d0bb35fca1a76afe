// Package ecc implements the detection codes Dvé builds on: Galois-field
// arithmetic, the RS(18,16) Reed–Solomon code over GF(2^8) used as the
// detection-only DSD code, and a GF(2^16) Reed–Solomon detection code for
// TSD (as in Multi-ECC). The fault package injects symbol errors into
// codewords encoded with these codecs to measure detection coverage
// empirically.
package ecc

// GF256 is the field GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d), the conventional choice for storage Reed–Solomon codes.
type GF256 struct {
	exp [512]byte
	log [256]int
}

// NewGF256 builds the log/antilog tables.
func NewGF256() *GF256 {
	f := &GF256{}
	x := 1
	for i := 0; i < 255; i++ {
		f.exp[i] = byte(x)
		f.log[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		f.exp[i] = f.exp[i-255]
	}
	return f
}

// Mul returns a*b.
func (f *GF256) Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Exp returns alpha^n for the primitive element alpha.
func (f *GF256) Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return f.exp[n]
}

// GF16b is the field GF(2^16) with primitive polynomial
// x^16+x^12+x^3+x+1 (0x1100b), used by the 16-bit-symbol TSD code.
type GF16b struct {
	exp []uint16
	log []int
}

// NewGF16b builds the log/antilog tables (256 KiB; built once).
func NewGF16b() *GF16b {
	f := &GF16b{
		exp: make([]uint16, 2*65535),
		log: make([]int, 65536),
	}
	x := 1
	for i := 0; i < 65535; i++ {
		f.exp[i] = uint16(x)
		f.log[x] = i
		x <<= 1
		if x&0x10000 != 0 {
			x ^= 0x1100b
		}
	}
	for i := 65535; i < 2*65535; i++ {
		f.exp[i] = f.exp[i-65535]
	}
	return f
}

// Mul returns a*b in GF(2^16).
func (f *GF16b) Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Exp returns alpha^n.
func (f *GF16b) Exp(n int) uint16 {
	n %= 65535
	if n < 0 {
		n += 65535
	}
	return f.exp[n]
}
