package dve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dve/internal/stats"
)

// resultDigest is SHA-256 over the JSON of a run's simulated outputs: ROI
// cycles, the counters and the invariant violations. It has the shape of
// the benchmark module's cell digest, so the two can be compared by eye.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Cycles     uint64
		Counters   stats.Counters
		Violations []string
	}{res.Cycles, res.Counters, res.InvariantViolations})
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenDigests are the result digests of five 20k-warmup + 60k-ROI runs.
// Any change to event order, timing or accounting anywhere in the
// simulator moves at least one of them.
var goldenDigests = []struct {
	cell allocCell
	want string
}{
	{allocCells[0], "265877b21c3d8a71db3359f942b8902e0fd5735c0a98cd8c15c11e71de93fc78"}, // fft/deny
	{allocCells[1], "fa9619408186d5fd67c5c4ee38185e8038b75304f9fbe1184daa099a95951b24"}, // lbm/baseline
	{allocCells[2], "5783ff4efd8ed0976ff455d3a8953d7f53b7326d69a2d89d20d958a84e7b428f"}, // canneal/dynamic
	{allocCells[3], "0519acc3c30f5fbdda1e33cf7a617b6cc3526ab8f68f01dcb66f948c83cecdc5"}, // graph500/allow
	// fft/allow+coarse: this digest includes the invariant violations of
	// the known coarse-grain HomeInvalidate fault (CHANGES.md, FOUND:),
	// which drops Modified lines without a writeback.
	{allocCells[4], "58eb0698707c30e9c92e2b730cf76d31acc2e9be125bd074dd37fe63f1b8c2de"},
}

// TestResultDigestsGolden pins the simulated results of a handful of cells
// byte for byte, so a host-side change (engine queue layout, pooling, a
// table swap) that reorders events fails tier-1 instead of surfacing only
// in a regenerated results file.
func TestResultDigestsGolden(t *testing.T) {
	for _, g := range goldenDigests {
		t.Run(g.cell.name, func(t *testing.T) {
			rc := g.cell.config()
			rc.WarmupOps, rc.MeasureOps = 20_000, 60_000
			res, err := Run(smallSpec(g.cell.workload), rc)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(t, res); got != g.want {
				t.Fatalf("%s: result digest\n got  %s\n want %s\n"+
					"the simulated results changed; if that is deliberate, update the constant "+
					"and say why in CHANGES.md", g.cell.name, got, g.want)
			}
		})
	}
}
