// Package gf256 implements arithmetic in the finite field GF(2^8) with the
// AES polynomial x^8 + x^4 + x^3 + x + 1 (0x11b). sgcrypto builds its AES
// S-box from Inv at init time.
package gf256

// poly is the reduction polynomial (0x11b without the x^8 bit).
const poly = 0x1b

// exp and log are the discriminant tables of the multiplicative group,
// generated from the primitive element 3.
var exp [512]byte
var log [256]int

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		exp[i] = x
		log[x] = i
		// multiply x by the generator 3 = x ^ (x<<1 mod poly)
		y := x << 1
		if x&0x80 != 0 {
			y ^= poly
		}
		x ^= y
	}
	for i := 255; i < 512; i++ {
		exp[i] = exp[i-255]
	}
}

// Add returns a + b (XOR in characteristic 2).
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b (identical to Add in characteristic 2).
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b.
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return exp[log[a]+log[b]]
}

// Inv returns the multiplicative inverse of a. Inv(0) panics: division by
// zero in GF(256) is a caller bug, not a recoverable condition.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return exp[255-log[a]]
}

// Div returns a / b. Div by zero panics.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return exp[log[a]+255-log[b]]
}

// Pow returns a^n.
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return exp[(log[a]*n)%255]
}
