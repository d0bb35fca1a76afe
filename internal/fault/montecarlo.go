package fault

import (
	"math/rand"

	"dve/internal/ecc"
)

// Monte-Carlo detection-coverage measurement over the real codecs: inject
// k-symbol errors into encoded words and measure how often the code misses
// them. This validates the detection-coverage assumptions of the Section IV
// analytical model (the paper cites a 6.9% three-chip miss probability for
// its DSD construction; our RS codes' measured rates are reported alongside
// in EXPERIMENTS.md).

// CoverageResult summarises one measurement.
type CoverageResult struct {
	Trials   int
	Missed   int // undetected (silent) corruptions
	Detected int
}

// MissRate returns the fraction of trials whose corruption went undetected.
func (c CoverageResult) MissRate() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Missed) / float64(c.Trials)
}

// MeasureRS256Detection corrupts k distinct symbols with random nonzero
// patterns and counts detection outcomes of the detect-only decoder.
func MeasureRS256Detection(n, k, symbols, trials int, seed int64) CoverageResult {
	rs := ecc.NewRS256(n, k)
	r := rand.New(rand.NewSource(seed))
	res := CoverageResult{Trials: trials}
	data := make([]byte, k)
	for t := 0; t < trials; t++ {
		r.Read(data)
		cw := rs.Encode(data)
		for _, p := range r.Perm(n)[:symbols] {
			cw[p] ^= byte(1 + r.Intn(255))
		}
		if rs.Detect(cw) {
			res.Detected++
		} else {
			res.Missed++
		}
	}
	return res
}

// MeasureRS16Detection is the TSD (GF(2^16), 3 check symbols) variant.
func MeasureRS16Detection(n, k, symbols, trials int, seed int64) CoverageResult {
	rs := ecc.NewRS16(n, k)
	r := rand.New(rand.NewSource(seed))
	res := CoverageResult{Trials: trials}
	data := make([]uint16, k)
	for t := 0; t < trials; t++ {
		for i := range data {
			data[i] = uint16(r.Intn(1 << 16))
		}
		cw := rs.Encode(data)
		for _, p := range r.Perm(n)[:symbols] {
			cw[p] ^= uint16(1 + r.Intn(1<<16-1))
		}
		if rs.Detect(cw) {
			res.Detected++
		} else {
			res.Missed++
		}
	}
	return res
}
