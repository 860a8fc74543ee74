package aesgcm

import (
	"math/rand"
	"testing"
)

// mulBitSerial is the definitional GF(2^128) multiply of SP 800-38D
// (Algorithm 1): 128 iterations, one bit of e each, shifting o by x and
// reducing as it goes. It is the oracle Mul and the GHASH table are
// checked against.
func mulBitSerial(e, o FieldEl) FieldEl {
	var z FieldEl
	v := o
	for i := 0; i < 128; i++ {
		var bit uint64
		if i < 64 {
			bit = (e.Hi >> (63 - uint(i))) & 1
		} else {
			bit = (e.Lo >> (127 - uint(i))) & 1
		}
		if bit == 1 {
			z.Hi ^= v.Hi
			z.Lo ^= v.Lo
		}
		v = mulByX(v)
	}
	return z
}

// TestMulMatchesBitSerial cross-checks the word-level Mul against the
// oracle on the edge elements (0, 1, all-ones, x^127 and single bits at
// the word boundaries) in every pairing, then on 100k seeded random
// pairs.
func TestMulMatchesBitSerial(t *testing.T) {
	edges := []FieldEl{
		{},                               // 0
		{Hi: 1 << 63},                    // 1 (x^0)
		{Hi: ^uint64(0), Lo: ^uint64(0)}, // all ones
		{Lo: 1},                          // x^127
		{Hi: 1},                          // x^63
		{Lo: 1 << 63},                    // x^64
		{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210},
	}
	check := func(a, b FieldEl) {
		t.Helper()
		if got, want := a.Mul(b), mulBitSerial(a, b); got != want {
			t.Fatalf("(%016x%016x)*(%016x%016x) = %016x%016x, want %016x%016x",
				a.Hi, a.Lo, b.Hi, b.Lo, got.Hi, got.Lo, want.Hi, want.Lo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100_000; i++ {
		check(FieldEl{Hi: rng.Uint64(), Lo: rng.Uint64()}, FieldEl{Hi: rng.Uint64(), Lo: rng.Uint64()})
	}
}

// FuzzFieldMul: the word-level Mul equals the bit-serial oracle on any
// pair of 16-byte blocks.
func FuzzFieldMul(f *testing.F) {
	f.Add(make([]byte, 16), make([]byte, 16))
	ones := make([]byte, 16)
	for i := range ones {
		ones[i] = 0xff
	}
	f.Add(ones, ones)
	x127 := make([]byte, 16)
	x127[15] = 1
	f.Add(x127, x127)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ab, bb [BlockSize]byte
		copy(ab[:], a)
		copy(bb[:], b)
		x, y := LoadEl(ab[:]), LoadEl(bb[:])
		if got, want := x.Mul(y), mulBitSerial(x, y); got != want {
			t.Fatalf("Mul(%x, %x) = %016x%016x, want %016x%016x", ab, bb, got.Hi, got.Lo, want.Hi, want.Lo)
		}
		if x.Mul(y) != y.Mul(x) {
			t.Fatalf("Mul(%x, %x) not commutative", ab, bb)
		}
	})
}

// BenchmarkFieldMul measures one word-level GF(2^128) multiply, the
// operation the stride-4 H powers and every cacheline fold are built on.
func BenchmarkFieldMul(b *testing.B) {
	x := FieldEl{Hi: 0x66e94bd4ef8a2c3b, Lo: 0x884cfa59ca342b2e}
	y := FieldEl{Hi: 0x0388dace60b6a392, Lo: 0xf328c2b971b2fe78}
	for i := 0; i < b.N; i++ {
		y = x.Mul(y)
	}
	benchSink = y
}

var benchSink FieldEl

func ghashInput(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131 + 17)
	}
	return data
}

// BenchmarkGHASHUpdate8bit measures the production GHASH hot loop: the
// 256-entry byte-indexed table with the folded x^8 reduction.
func BenchmarkGHASHUpdate8bit(b *testing.B) {
	h := make([]byte, 16)
	h[3] = 0x5A
	g := NewGHASH(h)
	data := ghashInput(16384)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(data)
	}
}

// TestMulTable8MatchesBitSerial cross-checks the 8-bit table multiply
// against the bit-serial oracle on varied elements.
func TestMulTable8MatchesBitSerial(t *testing.T) {
	h := FieldEl{Hi: 0x66e94bd4ef8a2c3b, Lo: 0x884cfa59ca342b2e}
	tab := newMulTable8(h)
	elems := []FieldEl{
		{},
		{Hi: 1},
		{Lo: 1},
		{Hi: ^uint64(0), Lo: ^uint64(0)},
		{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210},
	}
	x := FieldEl{Hi: 0xdeadbeefcafebabe, Lo: 0x0102030405060708}
	for i := 0; i < 64; i++ {
		elems = append(elems, x)
		x = mulByX(x.Xor(FieldEl{Hi: uint64(i) << 32, Lo: ^uint64(i)}))
	}
	for _, e := range elems {
		want := mulBitSerial(e, h)
		if got := tab.mul(e); got != want {
			t.Fatalf("mulTable8.mul(%x,%x) = %x,%x want %x,%x", e.Hi, e.Lo, got.Hi, got.Lo, want.Hi, want.Lo)
		}
	}
}
