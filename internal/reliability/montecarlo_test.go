package reliability

import (
	"math"
	"math/rand"
	"testing"
)

func baseMC() mcConfig {
	return mcConfig{
		PFail:        2e-3, // accelerated per-interval chip failure probability
		ChipsPerDIMM: 9,
		DIMMs:        32,
		Intervals:    400_000,
		Seed:         7,
	}
}

// The Monte-Carlo DUE rates must agree with the closed forms evaluated at
// the same accelerated parameters — this validates the combinatorics of the
// Section IV model independently of the formulas themselves.
func TestMonteCarloMatchesAnalyticalChipkill(t *testing.T) {
	c := baseMC()
	mc := simulateChipkill(c)
	ana := analyticalDUEPerInterval(c, false)
	got := mc.dueRate()
	if math.Abs(got-ana)/ana > 0.10 {
		t.Fatalf("Chipkill MC DUE %.3e vs analytical %.3e (>10%% apart)", got, ana)
	}
}

func TestMonteCarloMatchesAnalyticalDve(t *testing.T) {
	c := baseMC()
	mc := simulateDve(c, 3)
	ana := analyticalDUEPerInterval(c, true)
	got := mc.dueRate()
	if math.Abs(got-ana)/ana > 0.12 {
		t.Fatalf("Dvé MC DUE %.3e vs analytical %.3e (>12%% apart)", got, ana)
	}
}

// The headline Table I structure: Dvé's DUE rate is (n-1)/2 lower than
// Chipkill's at identical failure rates — 4x for 9-chip DIMMs. (The
// analytical model counts ordered pairs, a factor-2 convention; the ratio
// is convention-free, which is what the Monte Carlo checks.)
func TestMonteCarloDUEImprovement(t *testing.T) {
	c := baseMC()
	ck := simulateChipkill(c).dueRate()
	dv := simulateDve(c, 3).dueRate()
	impr := ck / dv
	if impr < 3.4 || impr > 4.6 {
		t.Fatalf("MC DUE improvement = %.2f, want ~4 (Table I)", impr)
	}
}

// TSD pushes the SDC-risk pattern from 3 failed chips to 4: the number of
// risky intervals must drop by orders of magnitude.
func TestMonteCarloTSDBeatsDSDOnSDC(t *testing.T) {
	c := baseMC()
	c.PFail = 2e-2 // higher acceleration so 3-chip patterns appear
	c.Intervals = 300_000
	dsd := simulateDve(c, 3).SDCTrials
	tsd := simulateDve(c, 4).SDCTrials
	if dsd == 0 {
		t.Fatal("acceleration too low: no 3-chip patterns sampled")
	}
	if tsd >= dsd/5 {
		t.Fatalf("TSD risky intervals %d not well below DSD's %d", tsd, dsd)
	}
}

// With no failures there are no outcomes; with certain failure everything
// is a DUE.
func TestMonteCarloBoundaries(t *testing.T) {
	c := baseMC()
	c.PFail = 0
	c.Intervals = 1000
	if out := simulateChipkill(c); out.DUE != 0 || out.Correction != 0 {
		t.Fatal("outcomes without failures")
	}
	c.PFail = 1
	if out := simulateDve(c, 3); out.DUE != c.Intervals {
		t.Fatalf("certain failure gave %d/%d DUEs", out.DUE, c.Intervals)
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	c := baseMC()
	c.Intervals = 50_000
	a := simulateChipkill(c)
	b := simulateChipkill(c)
	if a != b {
		t.Fatal("Monte Carlo not deterministic for a fixed seed")
	}
}

func TestDUERateEmpty(t *testing.T) {
	if (mcOutcome{}).dueRate() != 0 {
		t.Fatal("empty outcome rate not zero")
	}
}

// Monte-Carlo lifetime simulation: the independent, sampling-based oracle
// the tests above check the Section IV closed forms against. We simulate a
// fleet of systems over many scrub intervals; chip failures arrive
// per-interval with probability FIT-rate x interval, and each scheme's
// correction rule decides whether a interval's failure pattern is
// corrected, a DUE, or a potential SDC. Because real rates are ~1e-2 per billion hours, the
// simulation accelerates the FIT rate and the analytical model is evaluated
// at the same accelerated rate — the comparison is rate-to-rate at equal
// parameters, which validates the combinatorial structure of the formulas
// (the part that is easy to get wrong) rather than the absolute magnitudes.

// mcConfig parameterises a lifetime simulation.
type mcConfig struct {
	// PFail is the per-chip failure probability per scrub interval
	// (accelerated; the analytical equivalent is FIT*Window with
	// FIT = PFail / Window).
	PFail float64
	// ChipsPerDIMM and DIMMs mirror the analytical model.
	ChipsPerDIMM int
	DIMMs        int
	// Intervals is the number of scrub intervals simulated.
	Intervals int
	Seed      int64
}

// mcOutcome counts per-interval outcomes across the fleet.
type mcOutcome struct {
	Intervals  int
	DUE        int // intervals with an uncorrectable pattern
	SDCTrials  int // intervals whose pattern is beyond detection guarantees
	Correction int // intervals with correctable failures
}

// dueRate returns the per-interval DUE probability.
func (o mcOutcome) dueRate() float64 {
	if o.Intervals == 0 {
		return 0
	}
	return float64(o.DUE) / float64(o.Intervals)
}

// Scheme correction rules, expressed over the multiset of failed chips in
// one scrub interval.

// simulateChipkill runs the baseline: one failed chip per DIMM corrects;
// two or more in the same DIMM is a DUE; three or more additionally risks
// an SDC (subject to the detection-miss probability the analytical model
// multiplies in).
func simulateChipkill(c mcConfig) mcOutcome {
	r := rand.New(rand.NewSource(c.Seed))
	var out mcOutcome
	out.Intervals = c.Intervals
	for it := 0; it < c.Intervals; it++ {
		worstFails := 0
		any := false
		for d := 0; d < c.DIMMs; d++ {
			fails := sampleFails(r, c.ChipsPerDIMM, c.PFail)
			if fails > worstFails {
				worstFails = fails
			}
			if fails > 0 {
				any = true
			}
		}
		switch {
		case worstFails >= 3:
			out.DUE++
			out.SDCTrials++
		case worstFails == 2:
			out.DUE++
		case any:
			out.Correction++
		}
	}
	return out
}

// simulateDve runs the replicated organisation: each DIMM is paired with a
// replica DIMM on the other socket. Data is lost only if a chip and its
// same-position partner fail in one interval. detectChips is the per-DIMM
// failure count beyond which detection may miss (3 for DSD, 4 for TSD).
func simulateDve(c mcConfig, detectChips int) mcOutcome {
	r := rand.New(rand.NewSource(c.Seed))
	var out mcOutcome
	out.Intervals = c.Intervals
	primary := make([]bool, c.ChipsPerDIMM)
	replica := make([]bool, c.ChipsPerDIMM)
	for it := 0; it < c.Intervals; it++ {
		due := false
		sdc := false
		corrected := false
		for d := 0; d < c.DIMMs; d++ {
			pf, rf := 0, 0
			pair := false
			for ch := 0; ch < c.ChipsPerDIMM; ch++ {
				primary[ch] = r.Float64() < c.PFail
				replica[ch] = r.Float64() < c.PFail
				if primary[ch] {
					pf++
				}
				if replica[ch] {
					rf++
				}
				if primary[ch] && replica[ch] {
					pair = true
				}
			}
			if pair {
				due = true
			}
			if pf >= detectChips || rf >= detectChips {
				sdc = true
			}
			if pf+rf > 0 && !pair {
				corrected = true
			}
		}
		if due {
			out.DUE++
		}
		if sdc {
			out.SDCTrials++
		}
		if corrected && !due {
			out.Correction++
		}
	}
	return out
}

// analyticalDUEPerInterval evaluates the closed-form per-interval DUE
// probability at the Monte-Carlo parameters: for Chipkill, any ordered pair
// within a DIMM; for Dvé, a same-position pair across replicas.
func analyticalDUEPerInterval(c mcConfig, dve bool) float64 {
	n := float64(c.ChipsPerDIMM)
	p := c.PFail
	if dve {
		// P(some same-position pair in some DIMM) ~ DIMMs * n * p^2.
		return float64(c.DIMMs) * n * p * p
	}
	// P(>=2 of n chips in some DIMM) ~ DIMMs * C(n,2) * p^2.
	return float64(c.DIMMs) * n * (n - 1) / 2 * p * p
}

func sampleFails(r *rand.Rand, chips int, p float64) int {
	k := 0
	for i := 0; i < chips; i++ {
		if r.Float64() < p {
			k++
		}
	}
	return k
}
