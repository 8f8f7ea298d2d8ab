package gf256

import (
	"testing"
	"testing/quick"
)

func TestFieldAxioms(t *testing.T) {
	// Spot-check axioms exhaustively over the whole field.
	for a := 0; a < 256; a++ {
		if Mul(byte(a), 1) != byte(a) {
			t.Fatalf("1 is not multiplicative identity for %d", a)
		}
		if Mul(byte(a), 0) != 0 {
			t.Fatalf("0 absorption fails for %d", a)
		}
		if Add(byte(a), byte(a)) != 0 {
			t.Fatalf("characteristic-2 addition fails for %d", a)
		}
		if a != 0 {
			if Mul(byte(a), Inv(byte(a))) != 1 {
				t.Fatalf("inverse fails for %d", a)
			}
		}
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c byte) bool {
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		// Distributivity.
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDivInvertsMul(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Div(Mul(a, b), b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPow(t *testing.T) {
	if Pow(0, 0) != 1 || Pow(0, 5) != 0 || Pow(7, 0) != 1 {
		t.Fatal("pow edge cases")
	}
	for a := 1; a < 256; a++ {
		// Fermat: a^255 = 1 in the multiplicative group.
		if Pow(byte(a), 255) != 1 {
			t.Fatalf("a^255 != 1 for %d", a)
		}
		want := byte(1)
		for k := 0; k < 10; k++ {
			if Pow(byte(a), k) != want {
				t.Fatalf("pow(%d,%d) mismatch", a, k)
			}
			want = Mul(want, byte(a))
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) should panic")
		}
	}()
	Inv(0)
}
