package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGF256Axioms(t *testing.T) {
	f := NewGF256()
	g := func(a, b, c byte) bool {
		// Commutativity, associativity, distributivity.
		if f.Mul(a, b) != f.Mul(b, a) {
			return false
		}
		if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
			return false
		}
		return f.Mul(a, b^c) == f.Mul(a, b)^f.Mul(a, c)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGF256Inverse(t *testing.T) {
	f := NewGF256()
	for a := 1; a < 256; a++ {
		if f.Mul(byte(a), f.Exp(255-f.log[a])) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
	}
}

func TestGF256ExpLog(t *testing.T) {
	f := NewGF256()
	for n := -300; n < 600; n += 7 {
		a := f.Exp(n)
		if a == 0 {
			t.Fatalf("Exp(%d) = 0", n)
		}
	}
	for a := 1; a < 256; a++ {
		if f.Exp(f.log[a]) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
}

func TestRS256RoundTrip(t *testing.T) {
	rs := NewRS256(18, 16)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		data := make([]byte, 16)
		r.Read(data)
		cw := rs.Encode(data)
		if rs.Detect(cw) {
			t.Fatal("clean codeword detected as erroneous")
		}
		for j := range data {
			if cw[j] != data[j] {
				t.Fatal("codeword is not systematic: data symbols changed")
			}
		}
	}
}

// Detection-only use: the same code never misses 1- or 2-symbol errors.
func TestRS256DetectOnlyGuarantees(t *testing.T) {
	rs := NewRS256(18, 16)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		data := make([]byte, 16)
		r.Read(data)
		cw := rs.Encode(data)
		k := 1 + r.Intn(2)
		perm := r.Perm(18)
		for _, p := range perm[:k] {
			cw[p] ^= byte(1 + r.Intn(255))
		}
		if !rs.Detect(cw) {
			t.Fatalf("%d-symbol error not detected", k)
		}
	}
}

func TestRS256Panics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewRS256(16, 16) },
		func() { NewRS256(300, 16) },
		func() { NewRS256(18, 0) },
		func() { NewRS256(18, 16).Encode(make([]byte, 5)) },
		func() { NewRS256(18, 16).Syndromes(make([]byte, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRS16RoundTripAndTSD(t *testing.T) {
	rs := NewRS16(35, 32) // 64B line as 32 16-bit symbols + 3 checks
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		data := make([]uint16, 32)
		for j := range data {
			data[j] = uint16(r.Intn(1 << 16))
		}
		cw := rs.Encode(data)
		if rs.Detect(cw) {
			t.Fatal("clean RS16 codeword flagged")
		}
		// TSD guarantee: any 1..3 symbol errors detected.
		k := 1 + r.Intn(3)
		perm := r.Perm(35)
		for _, p := range perm[:k] {
			cw[p] ^= uint16(1 + r.Intn(1<<16-1))
		}
		if !rs.Detect(cw) {
			t.Fatalf("TSD missed a %d-symbol error", k)
		}
	}
}

func TestRS16FourSymbolDetectionIsStrong(t *testing.T) {
	rs := NewRS16(35, 32)
	r := rand.New(rand.NewSource(7))
	missed := 0
	for i := 0; i < 300; i++ {
		data := make([]uint16, 32)
		for j := range data {
			data[j] = uint16(r.Intn(1 << 16))
		}
		cw := rs.Encode(data)
		perm := r.Perm(35)
		for _, p := range perm[:4] {
			cw[p] ^= uint16(1 + r.Intn(1<<16-1))
		}
		if !rs.Detect(cw) {
			missed++
		}
	}
	if missed > 0 {
		// Probability ~2^-48 per trial; any miss indicates a bug.
		t.Fatalf("TSD missed %d/300 4-symbol errors", missed)
	}
}
