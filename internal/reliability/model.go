// Package reliability implements the paper's Section IV analytical DUE/SDC
// model. Rates are expressed per billion hours of operation, using a uniform
// DRAM device FIT rate (66.1, from Sridharan & Liberty's field study) and a
// scrub-interval window factor for coincident failures. The model reproduces
// every row of Table I, including the thermal variants (a linear per-chip
// FIT step across the DIMM's temperature gradient) and the risk-inverse
// mapping comparison against Intel-style mirroring.
package reliability

// Rates are failure rates per billion hours of operation.
type Rates struct {
	DUE float64 // detected but uncorrectable errors
	SDC float64 // silent data corruptions
}

// Model holds the system parameters shared by all schemes.
type Model struct {
	// FIT is the per-device (DRAM chip) failure rate per billion hours.
	FIT float64
	// ChipsPerDIMM is 9 for a single-rank ECC DIMM (8 data + 1 check chip).
	ChipsPerDIMM int
	// DIMMs is the number of DIMMs in the (non-replicated) system.
	DIMMs int
	// Window is the probability scale factor for an additional failure
	// landing inside the same scrub interval (the paper's 10^-9 factor).
	Window float64
	// DetectMiss is the probability that the detection code misses an error
	// pattern one symbol beyond its guarantee (6.9% for the DSD code on
	// three-chip failures, from Yeleswarapu & Somani; applied analogously to
	// TSD on four-chip failures).
	DetectMiss float64
}

// Default returns the Table I configuration: 32 single-rank ECC DIMMs of 9
// chips, FIT 66.1, scrub window 1e-9, DSD 3-chip miss probability 6.9%.
func Default() Model {
	return Model{
		FIT:          66.1,
		ChipsPerDIMM: 9,
		DIMMs:        32,
		Window:       1e-9,
		DetectMiss:   0.069,
	}
}

// Chipkill returns the baseline SSC-DSD Chipkill rates. A DUE needs two
// chips of the same rank failing in one scrub interval; an SDC needs three
// (beyond the detection guarantee) plus a detection miss.
func (m Model) Chipkill() Rates {
	n := float64(m.ChipsPerDIMM)
	f := m.FIT
	due := (n * f) * ((n - 1) * f * m.Window) * float64(m.DIMMs)
	triple := (n * f) * ((n - 1) * f * m.Window) * ((n - 2) * f * m.Window)
	return Rates{
		DUE: due,
		SDC: triple * float64(m.DIMMs) * m.DetectMiss,
	}
}

// DveDSD returns Dvé equipped with a detection code of the same strength as
// the baseline (double-symbol detect). The DUE requires the *same-position*
// chip on both replicas failing together — one partner instead of eight —
// and the replica pair doubles the DIMM population; the SDC doubles the
// Chipkill SDC because a silent corruption can strike either replica.
func (m Model) DveDSD() Rates {
	n := float64(m.ChipsPerDIMM)
	f := m.FIT
	due := (n * f) * (1 * f * m.Window) * float64(m.DIMMs) * 2
	return Rates{
		DUE: due,
		SDC: 2 * m.Chipkill().SDC,
	}
}

// DveTSD returns Dvé with the stronger triple-symbol-detect code bought with
// the capacity freed by dropping correction: the DUE is unchanged (it
// depends only on the replica count, as the paper notes), while an SDC now
// needs four chips of one DIMM failing together plus a detection miss.
func (m Model) DveTSD() Rates {
	n := float64(m.ChipsPerDIMM)
	f := m.FIT
	quad := (n * f) * ((n - 1) * f * m.Window) * ((n - 2) * f * m.Window) *
		((n - 3) * f * m.Window)
	return Rates{
		DUE: m.DveDSD().DUE,
		SDC: quad * float64(m.DIMMs) * 2 * m.DetectMiss,
	}
}

// RAIM returns the IBM RAIM reference point: 5 channels of Chipkill DIMMs in
// RAID-3; it fails to correct when two corresponding Chipkill DIMMs on two
// of the five channels fail together (the second within the scrub window).
func (m Model) RAIM(channels, dimmsPerChannel int) Rates {
	n := float64(m.ChipsPerDIMM)
	f := m.FIT
	chipkillDIMM := (n * f) * ((n - 1) * f * m.Window) // per-DIMM Chipkill DUE
	due := (chipkillDIMM * float64(dimmsPerChannel)) *
		float64(channels-1) *
		(chipkillDIMM * 1) * m.Window *
		float64(channels)
	// SDC is bounded by the Chipkill detection miss across all DIMMs.
	triple := (n * f) * ((n - 1) * f * m.Window) * ((n - 2) * f * m.Window)
	return Rates{
		DUE: due,
		SDC: triple * float64(channels*dimmsPerChannel) * m.DetectMiss,
	}
}

// DveChipkill returns Dvé layered over Chipkill ECC DIMMs: each replica
// corrects one chip locally, so losing data needs two chips in one DIMM
// *and* the corresponding pair on the replica DIMM inside the window.
func (m Model) DveChipkill() Rates {
	n := float64(m.ChipsPerDIMM)
	f := m.FIT
	due := (n * f) * ((n - 1) * f * m.Window) *
		(1 * f * m.Window) * (1 * f * m.Window) *
		float64(m.DIMMs) * 2
	return Rates{
		DUE: due,
		SDC: 2 * m.Chipkill().SDC,
	}
}

// ThermalFITs returns per-chip FIT rates under the paper's 10°C intra-DIMM
// gradient: [66.1, 74.3, ..., 131.7] for the default model.
func ThermalFITs(base, step float64, chips int) []float64 {
	out := make([]float64, chips)
	for i := range out {
		out[i] = base + float64(i)*step
	}
	return out
}

// ChipkillThermal evaluates the baseline under non-uniform per-chip FITs:
// any ordered pair of distinct chips failing in a window is a DUE, any
// ordered triple (with a detection miss) an SDC.
func (m Model) ChipkillThermal(fits []float64) Rates {
	var due, sdc float64
	for i, fi := range fits {
		for j, fj := range fits {
			if j == i {
				continue
			}
			due += fi * fj * m.Window
			for k, fk := range fits {
				if k == i || k == j {
					continue
				}
				sdc += fi * fj * fk * m.Window * m.Window
			}
		}
	}
	return Rates{
		DUE: due * float64(m.DIMMs),
		SDC: sdc * float64(m.DIMMs) * m.DetectMiss,
	}
}

// MirrorThermal evaluates a replicated scheme (with TSD detection) under
// non-uniform per-chip FITs. A DUE needs a chip and its *paired* replica
// chip failing together. riskInverse selects Dvé's thermal-risk-aware
// mapping (hot chips paired with cool replica chips); false models
// Intel-style mirroring where both copies share the same thermal position.
func (m Model) MirrorThermal(fits []float64, riskInverse bool) Rates {
	n := len(fits)
	var due float64
	for i, fi := range fits {
		partner := fits[i]
		if riskInverse {
			partner = fits[n-1-i]
		}
		due += fi * partner * m.Window
	}
	// SDC: four chips of one DIMM beyond the TSD guarantee, either replica.
	var quad float64
	for i, fi := range fits {
		for j, fj := range fits {
			if j == i {
				continue
			}
			for k, fk := range fits {
				if k == i || k == j {
					continue
				}
				for l, fl := range fits {
					if l == i || l == j || l == k {
						continue
					}
					quad += fi * fj * fk * fl * m.Window * m.Window * m.Window
				}
			}
		}
	}
	return Rates{
		DUE: due * float64(m.DIMMs) * 2,
		SDC: quad * float64(m.DIMMs) * 2 * m.DetectMiss,
	}
}
