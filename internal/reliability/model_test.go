package reliability

import (
	"math"
	"testing"
)

// within checks x is within rel of want (relative tolerance).
func within(t *testing.T, name string, got, want, rel float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %g, want 0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > rel {
		t.Errorf("%s = %.3g, want %.3g (±%.0f%%)", name, got, want, rel*100)
	}
}

// Table I, row by row. The paper's printed values are 2-significant-figure
// roundings of the same closed forms.
func TestTableIChipkill(t *testing.T) {
	m := Default()
	r := m.Chipkill()
	within(t, "Chipkill DUE", r.DUE, 1.0e-2, 0.02)
	within(t, "Chipkill SDC", r.SDC, 3.1e-10, 0.05)
}

func TestTableIDveDSD(t *testing.T) {
	m := Default()
	r := m.DveDSD()
	within(t, "Dve+DSD DUE", r.DUE, 2.5e-3, 0.02)
	within(t, "Dve+DSD SDC", r.SDC, 6.3e-10, 0.05)
	// Improvement: 4x lower DUE than Chipkill (exactly (n-1)/2 = 4).
	within(t, "DUE improvement", m.Chipkill().DUE/r.DUE, 4.0, 0.01)
	// SDC is worse by 2x (0.49x "improvement" in the paper).
	within(t, "SDC ratio", m.Chipkill().SDC/r.SDC, 0.5, 0.01)
}

func TestTableIDveTSD(t *testing.T) {
	m := Default()
	r := m.DveTSD()
	within(t, "Dve+TSD DUE", r.DUE, 2.5e-3, 0.02)
	within(t, "Dve+TSD SDC", r.SDC, 2.5e-16, 0.05)
	// ~10^6 x better SDC than Chipkill.
	impr := m.Chipkill().SDC / r.SDC
	if impr < 1e5 || impr > 1e7 {
		t.Errorf("TSD SDC improvement = %.3g, want ~1e6", impr)
	}
}

func TestTableIRAIM(t *testing.T) {
	m := Default()
	r := m.RAIM(5, 8)
	within(t, "RAIM DUE", r.DUE, 1.5e-14, 0.1)
	within(t, "RAIM SDC", r.SDC, 4.0e-10, 0.05)
}

func TestTableIDveChipkill(t *testing.T) {
	m := Default()
	r := m.DveChipkill()
	within(t, "Dve+Chipkill DUE", r.DUE, 8.7e-17, 0.05)
	within(t, "Dve+Chipkill SDC", r.SDC, 6.3e-10, 0.05)
	// 172x (two orders of magnitude) lower DUE than RAIM.
	within(t, "vs RAIM", m.RAIM(5, 8).DUE/r.DUE, 172, 0.15)
}

func TestTableIThermal(t *testing.T) {
	m := Default()
	fits := ThermalFITs(66.1, 8.2, 9)
	if fits[0] != 66.1 || math.Abs(fits[8]-131.7) > 1e-9 {
		t.Fatalf("thermal FITs = %v", fits)
	}

	ck := m.ChipkillThermal(fits)
	within(t, "Chipkill† DUE", ck.DUE, 2.2e-2, 0.05)
	within(t, "Chipkill† SDC", ck.SDC, 1.0e-9, 0.10)

	intel := m.MirrorThermal(fits, false)
	within(t, "Intel+TSD† DUE", intel.DUE, 5.9e-3, 0.02)

	dve := m.MirrorThermal(fits, true)
	within(t, "Dvé+TSD† DUE", dve.DUE, 5.3e-3, 0.02)

	// Dvé's risk-inverse mapping lowers DUE over Intel mirroring: the paper
	// quotes 11% from the rounded 5.9/5.3 values; the exact closed form
	// gives 9.6%.
	if intel.DUE/dve.DUE < 1.09 {
		t.Errorf("risk-inverse improvement = %.3f, want >= 1.09", intel.DUE/dve.DUE)
	}
	within(t, "Chipkill†/Dvé†", ck.DUE/dve.DUE, 4.15, 0.05)
	// SDC ~1.1e-15 for both mirrored schemes.
	within(t, "Dvé+TSD† SDC", dve.SDC, 1.1e-15, 0.25)
	within(t, "Intel+TSD† SDC", intel.SDC, 1.1e-15, 0.25)
}

// The DUE advantage of replication is independent of the detection code and
// equals (chips-1)/replicas for any chip count — the paper notes "this
// number is irrespective of the detection code".
func TestDUEImprovementIndependentOfCode(t *testing.T) {
	for _, chips := range []int{9, 18, 36} {
		m := Default()
		m.ChipsPerDIMM = chips
		want := float64(chips-1) / 2
		within(t, "improvement", m.Chipkill().DUE/m.DveDSD().DUE, want, 1e-9)
	}
}

// Risk-inverse pairing is optimal among the two pairings for any monotone
// FIT gradient (rearrangement inequality): pairing hot with cool minimizes
// the sum of products.
func TestRiskInverseAlwaysAtLeastAsGood(t *testing.T) {
	m := Default()
	for _, step := range []float64{0, 1, 8.2, 30} {
		fits := ThermalFITs(66.1, step, 9)
		inv := m.MirrorThermal(fits, true).DUE
		same := m.MirrorThermal(fits, false).DUE
		if inv > same+1e-12 {
			t.Errorf("step %v: risk-inverse DUE %g > same-position %g", step, inv, same)
		}
		if step == 0 && math.Abs(inv-same) > 1e-12 {
			t.Errorf("uniform FITs should make pairings equal")
		}
	}
}

func TestDesignPoints(t *testing.T) {
	pts := DesignPoints(Default())
	if len(pts) != 3 {
		t.Fatalf("%d design points, want 3", len(pts))
	}
	byName := map[string]Scheme{}
	for _, p := range pts {
		byName[p.Name] = p
	}
	// Fig 1 capacity ordering: SEC-DED > Chipkill > Dvé, with the paper's
	// values.
	if byName["Dvé+TSD"].EffectiveCapacity != 0.4375 {
		t.Errorf("Dvé capacity = %v, want 0.4375", byName["Dvé+TSD"].EffectiveCapacity)
	}
	if byName["Chipkill"].EffectiveCapacity != 0.85 {
		t.Errorf("Chipkill capacity = %v, want 0.85", byName["Chipkill"].EffectiveCapacity)
	}
	if !(byName["SEC-DED"].EffectiveCapacity > 0.85) {
		t.Error("SEC-DED capacity should exceed Chipkill")
	}
	// Reliability ordering: Dvé DUE < Chipkill DUE < SEC-DED DUE.
	if !(byName["Dvé+TSD"].Rates.DUE < byName["Chipkill"].Rates.DUE &&
		byName["Chipkill"].Rates.DUE < byName["SEC-DED"].Rates.DUE) {
		t.Error("Fig 1 reliability ordering violated")
	}
}
