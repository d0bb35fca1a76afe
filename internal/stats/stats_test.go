package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	got := Geomean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("Geomean(1,4) = %v, want 2", got)
	}
	if Geomean(nil) != 0 {
		t.Fatal("Geomean(nil) != 0")
	}
}

func TestGeomeanSkipsNonPositive(t *testing.T) {
	// A degenerate cell (zero, negative, NaN, +Inf) is skipped, not fatal:
	// one broken run must not crash a whole report.
	g, skipped := GeomeanSkipped([]float64{1, 0, 4, -3, math.NaN(), math.Inf(1)})
	if math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean over valid subset = %v, want 2", g)
	}
	if skipped != 4 {
		t.Fatalf("skipped = %d, want 4", skipped)
	}
	if got := Geomean([]float64{1, 0, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Geomean(1,0,4) = %v, want 2", got)
	}
	// All-degenerate input surfaces as NaN, never a plausible number.
	g, skipped = GeomeanSkipped([]float64{0, -1})
	if !math.IsNaN(g) || skipped != 2 {
		t.Fatalf("all-degenerate geomean = (%v, %d), want (NaN, 2)", g, skipped)
	}
}

// Property: geomean lies between min and max, and is scale-equivariant.
func TestGeomeanProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)/16 + 0.5 // in (0, ~16.5]
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := Geomean(xs)
		if g < lo-1e-9 || g > hi+1e-9 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 3
		}
		return math.Abs(Geomean(scaled)-3*g) < 1e-9*math.Max(1, g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(200, 100) != 2 {
		t.Fatal("Speedup(200,100) != 2")
	}
	// A zero-cycle run is degenerate on either side: NaN, not a false 0x.
	if !math.IsNaN(Speedup(100, 0)) {
		t.Fatal("Speedup with zero cycles should be NaN")
	}
	if !math.IsNaN(Speedup(0, 100)) {
		t.Fatal("Speedup with zero baseline cycles should be NaN")
	}
}

func TestTableWarnsOnDegenerateGeomeanCells(t *testing.T) {
	tab := Table{
		Title:   "degenerate",
		Schemes: []string{"a"},
		Rows: []Row{
			{Name: "good", MPKI: 2, Values: map[string]float64{"a": 1.5}},
			{Name: "bad", MPKI: 1, Values: map[string]float64{"a": math.NaN()}},
		},
	}
	out := tab.String()
	if !strings.Contains(out, "warning:") {
		t.Fatalf("degenerate cell not flagged:\n%s", out)
	}
}

func TestSharingMixSumsToOne(t *testing.T) {
	c := Counters{PrivateRead: 10, ReadOnly: 20, ReadWrite: 30, PrivateReadWrite: 40}
	mix := c.SharingMix()
	sum := mix[0] + mix[1] + mix[2] + mix[3]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("mix sums to %v, want 1", sum)
	}
	if mix[3] != 0.4 {
		t.Fatalf("private-RW fraction = %v, want 0.4", mix[3])
	}
	var empty Counters
	if empty.SharingMix() != [4]float64{} {
		t.Fatal("empty counters should give zero mix")
	}
}

func TestMPKI(t *testing.T) {
	c := Counters{LLCMisses: 50, Ops: 10000}
	if c.MPKI() != 5 {
		t.Fatalf("MPKI = %v, want 5", c.MPKI())
	}
	var empty Counters
	if empty.MPKI() != 0 {
		t.Fatal("MPKI of empty counters should be 0")
	}
}

func TestAvgMemLatency(t *testing.T) {
	c := Counters{MemLatencySum: 1000, MemCount: 10}
	if c.AvgMemLatency() != 100 {
		t.Fatalf("AvgMemLatency = %v, want 100", c.AvgMemLatency())
	}
}

func TestTable(t *testing.T) {
	tab := Table{
		Title:   "test",
		Schemes: []string{"a", "b"},
	}
	for i := 0; i < 12; i++ {
		tab.Rows = append(tab.Rows, Row{
			Name:   "w" + string(rune('a'+i)),
			MPKI:   float64(i),
			Values: map[string]float64{"a": 1.0 + float64(i)/10, "b": 2.0},
		})
	}
	s := tab.String()
	if !strings.Contains(s, "geomean-top10") || !strings.Contains(s, "geomean-top12") {
		t.Fatalf("table output missing geomean rows:\n%s", s)
	}
}

// TestMergeCoversEveryField fills every Counters field with a distinct
// value via reflection and checks Merge into a zero target reproduces it
// exactly — so adding a field without teaching Merge about it fails here
// instead of silently dropping a socket shard's counts.
func TestMergeCoversEveryField(t *testing.T) {
	var src Counters
	v := reflect.ValueOf(&src).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Struct: // MissLatency
			src.MissLatency.Add(uint64(i + 1))
			src.MissLatency.Add(3)
		default:
			t.Fatalf("Counters field %s has kind %s: teach this test (and Merge) about it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	var dst Counters
	dst.Merge(&src)
	if !reflect.DeepEqual(dst, src) {
		t.Fatalf("Merge into zero differs from source:\n got %+v\nwant %+v", dst, src)
	}

	// Merging twice must double every event counter but keep the
	// DRAMChannels configuration echo.
	dst.Merge(&src)
	if dst.DRAMChannels != src.DRAMChannels {
		t.Fatalf("DRAMChannels = %d after second merge, want %d", dst.DRAMChannels, src.DRAMChannels)
	}
	if dst.Ops != 2*src.Ops || dst.EngineEpochs != 2*src.EngineEpochs {
		t.Fatal("second merge did not accumulate")
	}
}
