package ecc

// RS256 is a systematic Reed–Solomon code over GF(2^8) with n total symbols
// and k data symbols (r = n-k check symbols). RS(18,16) with one symbol per
// DRAM chip has the geometry of the Chipkill-style SSC-DSD code of
// Virtualized ECC the paper uses as its baseline; used for detection only,
// it is Dvé's DSD code.
type RS256 struct {
	f   *GF256
	n   int
	k   int
	gen []byte // generator polynomial, degree r, gen[0] = x^r coefficient (1)
}

// NewRS256 constructs the code; n must exceed k and fit the field (n<=255).
func NewRS256(n, k int) *RS256 {
	if n <= k || n > 255 || k <= 0 {
		panic("ecc: invalid RS(n,k)")
	}
	f := NewGF256()
	r := n - k
	// g(x) = prod_{i=0}^{r-1} (x - alpha^i)
	gen := []byte{1}
	for i := 0; i < r; i++ {
		next := make([]byte, len(gen)+1)
		for j, c := range gen {
			next[j] ^= f.Mul(c, 1) // shift (multiply by x)
			next[j+1] ^= f.Mul(c, f.Exp(i))
		}
		gen = next
	}
	return &RS256{f: f, n: n, k: k, gen: gen}
}

// Encode returns the n-symbol codeword data||parity. len(data) must be k.
func (r *RS256) Encode(data []byte) []byte {
	if len(data) != r.k {
		panic("ecc: RS256 Encode: wrong data length")
	}
	nr := r.n - r.k
	cw := make([]byte, r.n)
	copy(cw, data)
	// Polynomial long division of data(x)*x^r by g(x); remainder = parity.
	rem := make([]byte, nr)
	for _, d := range data {
		coef := d ^ rem[0]
		copy(rem, rem[1:])
		rem[nr-1] = 0
		if coef != 0 {
			for j := 1; j <= nr; j++ {
				rem[j-1] ^= r.f.Mul(coef, r.gen[j])
			}
		}
	}
	copy(cw[r.k:], rem)
	return cw
}

// Syndromes evaluates the received word at alpha^0..alpha^(r-1); an all-zero
// result means "no error detected".
func (r *RS256) Syndromes(cw []byte) []byte {
	if len(cw) != r.n {
		panic("ecc: RS256 Syndromes: wrong codeword length")
	}
	nr := r.n - r.k
	syn := make([]byte, nr)
	for j := 0; j < nr; j++ {
		var s byte
		a := r.f.Exp(j)
		// Horner evaluation: cw[0] is the highest-degree coefficient.
		for _, c := range cw {
			s = r.f.Mul(s, a) ^ c
		}
		syn[j] = s
	}
	return syn
}

// Detect reports whether any error is detected (nonzero syndrome). This is
// the DSD detection-only use of the code.
func (r *RS256) Detect(cw []byte) bool {
	for _, s := range r.Syndromes(cw) {
		if s != 0 {
			return true
		}
	}
	return false
}

// RS16 is a detection-only Reed–Solomon code over GF(2^16): the TSD (Triple
// Symbol Detect) configuration from Multi-ECC the paper equips Dvé with. Its
// r=3 16-bit check symbols detect any 3 corrupted symbols with certainty and
// wider corruption with probability 1 - 2^-48.
type RS16 struct {
	f *GF16b
	n int
	k int
}

// NewRS16 constructs the detection code (n <= 65535).
func NewRS16(n, k int) *RS16 {
	if n <= k || k <= 0 || n > 65535 {
		panic("ecc: invalid RS16(n,k)")
	}
	return &RS16{f: NewGF16b(), n: n, k: k}
}

// Encode appends r check symbols chosen so that all syndromes are zero.
// For detection-only use, the check symbols are the syndromes of data||0s:
// appending them in dedicated positions and re-evaluating cancels exactly
// when the word is intact. We use a systematic construction via Vandermonde
// back-substitution on the three trailing positions.
func (r *RS16) Encode(data []uint16) []uint16 {
	if len(data) != r.k {
		panic("ecc: RS16 Encode: wrong data length")
	}
	nr := r.n - r.k
	cw := make([]uint16, r.n)
	copy(cw, data)
	// Compute syndromes of data||zeros, then solve for parity symbols p_t
	// (t = 0..nr-1 at positions n-1-t, i.e. x^t) such that
	// sum_t p_t * alpha^(j*t) = S_j for every j.
	syn := r.syndromes(cw)
	// Gaussian elimination on the small nr x nr Vandermonde system
	// M[j][t] = alpha^(j*t).
	m := make([][]uint16, nr)
	for j := 0; j < nr; j++ {
		m[j] = make([]uint16, nr+1)
		for t := 0; t < nr; t++ {
			m[j][t] = r.f.Exp(j * t)
		}
		m[j][nr] = syn[j]
	}
	for col := 0; col < nr; col++ {
		// Find pivot.
		piv := -1
		for row := col; row < nr; row++ {
			if m[row][col] != 0 {
				piv = row
				break
			}
		}
		m[col], m[piv] = m[piv], m[col]
		inv := r.inv(m[col][col])
		for t := col; t <= nr; t++ {
			m[col][t] = r.f.Mul(m[col][t], inv)
		}
		for row := 0; row < nr; row++ {
			if row == col || m[row][col] == 0 {
				continue
			}
			factor := m[row][col]
			for t := col; t <= nr; t++ {
				m[row][t] ^= r.f.Mul(factor, m[col][t])
			}
		}
	}
	for t := 0; t < nr; t++ {
		cw[r.n-1-t] = m[t][nr]
	}
	return cw
}

func (r *RS16) inv(a uint16) uint16 {
	if a == 0 {
		panic("ecc: GF16b inverse of zero")
	}
	return r.f.Exp(65535 - r.f.log[a])
}

func (r *RS16) syndromes(cw []uint16) []uint16 {
	nr := r.n - r.k
	syn := make([]uint16, nr)
	for j := 0; j < nr; j++ {
		var s uint16
		a := r.f.Exp(j)
		for _, c := range cw {
			s = r.f.Mul(s, a) ^ c
		}
		syn[j] = s
	}
	return syn
}

// Detect reports whether the received word fails the check.
func (r *RS16) Detect(cw []uint16) bool {
	if len(cw) != r.n {
		panic("ecc: RS16 Detect: wrong codeword length")
	}
	for _, s := range r.syndromes(cw) {
		if s != 0 {
			return true
		}
	}
	return false
}
