package reliability

// Scheme identifies a DRAM RAS design point for the Fig 1 comparison.
type Scheme struct {
	Name string
	// EffectiveCapacity is usable data capacity as a fraction of raw
	// provisioned capacity.
	EffectiveCapacity float64
	// PerfDelta is the paper's cited performance effect versus non-ECC DRAM
	// (negative = slowdown). Every entry, Dvé's range included, is the
	// paper's figure, not a measurement of this repo.
	PerfDelta string
	// DUE/SDC from the analytical model (uniform FIT).
	Rates Rates
}

// DesignPoints returns the Fig 1 comparison: SEC-DED, Chipkill, and Dvé
// (with TSD), with effective capacities and the model's DUE/SDC rates.
//
// Capacity accounting (per the paper's Fig 1): SEC-DED and Chipkill DIMMs
// devote 8 of 9 chips to data, and Chipkill additionally reserves ~4% of the
// address space for metadata/firmware regions, giving the paper's 85%
// figure. Dvé halves capacity by replication on top of the detection-code
// overhead: 0.875 / 2 = 43.75%.
func DesignPoints(m Model) []Scheme {
	secDUE := m.Chipkill() // same pairwise failure structure at chip level
	return []Scheme{
		{
			Name:              "SEC-DED",
			EffectiveCapacity: 64.0 / 72.0, // 88.9%
			PerfDelta:         "~0% (correction off critical path, weak coverage)",
			// SEC-DED cannot correct a chip failure at all: every chip
			// failure is a DUE (or worse); approximate with the single-chip
			// failure rate.
			Rates: Rates{
				DUE: float64(m.ChipsPerDIMM) * m.FIT * float64(m.DIMMs),
				SDC: secDUE.DUE, // multi-bit aliasing beyond DED
			},
		},
		{
			Name:              "Chipkill",
			EffectiveCapacity: 0.85,
			PerfDelta:         "-2..-3% (manufacturer-cited ECC overhead)",
			Rates:             m.Chipkill(),
		},
		{
			Name:              "Dvé+TSD",
			EffectiveCapacity: 0.4375,
			PerfDelta:         "+5..+117% on-demand (paper's Fig 6)",
			Rates:             m.DveTSD(),
		},
	}
}
