package aesgcm

import (
	"encoding/binary"
	"math/bits"
)

// FieldEl is an element of GF(2^128) in the GCM bit ordering (the first
// byte of the block holds the polynomial's lowest-degree coefficients in
// its most significant bit).
type FieldEl struct {
	Hi, Lo uint64 // Hi holds bytes 0..7 of the block, big-endian
}

// LoadEl reads a 16-byte block as a field element.
func LoadEl(b []byte) FieldEl {
	return FieldEl{
		Hi: binary.BigEndian.Uint64(b[0:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}
}

// Store writes the field element into a 16-byte block.
func (e FieldEl) Store(b []byte) {
	binary.BigEndian.PutUint64(b[0:8], e.Hi)
	binary.BigEndian.PutUint64(b[8:16], e.Lo)
}

// Xor returns e ^ o (field addition).
func (e FieldEl) Xor(o FieldEl) FieldEl {
	return FieldEl{Hi: e.Hi ^ o.Hi, Lo: e.Lo ^ o.Lo}
}

// IsZero reports whether the element is the additive identity.
func (e FieldEl) IsZero() bool { return e.Hi == 0 && e.Lo == 0 }

// gcmR is the reduction constant for GF(2^128) with GCM's polynomial
// x^128 + x^7 + x^2 + x + 1 in the shifted representation.
const gcmR = 0xe100000000000000

// Mul returns the GF(2^128) product e*o under the GCM conventions. It
// is a word-level carry-less multiply (the BearSSL ctmul64 method):
// Karatsuba splits the 128x128 product into three 64x64 products, each
// computed by bmul64 on the operands for its low half and on their bit
// reversals for its high half, and a two-step fold reduces the 256-bit
// result modulo x^128+x^7+x^2+x+1. The tests check it bit for bit
// against the bit-serial definition of SP 800-38D.
func (e FieldEl) Mul(o FieldEl) FieldEl {
	// In the GCM bit order the integer bits are reflected: the MSB of Hi
	// is the coefficient of x^0. Multiplying the reflected words as
	// ordinary polynomials yields the reflected product shifted by one.
	y1, y0 := e.Hi, e.Lo
	h1, h0 := o.Hi, o.Lo
	y0r, y1r := bits.Reverse64(y0), bits.Reverse64(y1)
	h0r, h1r := bits.Reverse64(h0), bits.Reverse64(h1)
	y2, y2r := y0^y1, y0r^y1r
	h2, h2r := h0^h1, h0r^h1r

	z0 := bmul64(y0, h0)
	z1 := bmul64(y1, h1)
	z2 := bmul64(y2, h2)
	z0h := bmul64(y0r, h0r)
	z1h := bmul64(y1r, h1r)
	z2h := bmul64(y2r, h2r)
	z2 ^= z0 ^ z1
	z2h ^= z0h ^ z1h
	z0h = bits.Reverse64(z0h) >> 1
	z1h = bits.Reverse64(z1h) >> 1
	z2h = bits.Reverse64(z2h) >> 1

	// The 256-bit product, least significant word first.
	v0 := z0
	v1 := z0h ^ z2
	v2 := z1 ^ z2h
	v3 := z1h

	// Undo the reflection's off-by-one shift.
	v3 = v3<<1 | v2>>63
	v2 = v2<<1 | v1>>63
	v1 = v1<<1 | v0>>63
	v0 <<= 1

	// Reduce: v0 and v1 hold the coefficients of x^128..x^255. Fold
	// them into v2 and v3 with x^128 = x^7+x^2+x+1, one word at a time.
	v2 ^= v0 ^ v0>>1 ^ v0>>2 ^ v0>>7
	v1 ^= v0<<63 ^ v0<<62 ^ v0<<57
	v3 ^= v1 ^ v1>>1 ^ v1>>2 ^ v1>>7
	v2 ^= v1<<63 ^ v1<<62 ^ v1<<57
	return FieldEl{Hi: v3, Lo: v2}
}

// bmul64 returns the low 64 bits of the carry-less product x*y. Each
// operand is split into four bit-masked lanes holding every fourth bit,
// so an integer multiply of two lanes has holes between its terms that
// absorb the carries: a product bit sums at most 15 terms below bit 60,
// and the carry of the 16-term sum at bit 60 leaves the word.
func bmul64(x, y uint64) uint64 {
	const m0, m1, m2, m3 = 0x1111111111111111, 0x2222222222222222, 0x4444444444444444, 0x8888888888888888
	x0, x1, x2, x3 := x&m0, x&m1, x&m2, x&m3
	y0, y1, y2, y3 := y&m0, y&m1, y&m2, y&m3
	z0 := x0*y0 ^ x1*y3 ^ x2*y2 ^ x3*y1
	z1 := x0*y1 ^ x1*y0 ^ x2*y3 ^ x3*y2
	z2 := x0*y2 ^ x1*y1 ^ x2*y0 ^ x3*y3
	z3 := x0*y3 ^ x1*y2 ^ x2*y1 ^ x3*y0
	return z0&m0 | z1&m1 | z2&m2 | z3&m3
}

// mulByX multiplies by the field element x (a one-bit right shift in the
// GCM representation, with reduction).
func mulByX(v FieldEl) FieldEl {
	lsb := v.Lo & 1
	v.Lo = v.Lo>>1 | v.Hi<<63
	v.Hi >>= 1
	if lsb == 1 {
		v.Hi ^= gcmR
	}
	return v
}

// mulTable8 is the 256-entry byte-indexed multiplication table of the
// hash subkey for GHASH's Horner evaluation, consuming a whole byte per
// step so a block costs 16 table folds. Building it once per hash
// subkey amortizes the work across all blocks, the same trade hardware
// GHASH pipelines make. Index bit 7 (the byte's MSB) is the
// lowest-degree term, matching the GCM bit order.
type mulTable8 [256]FieldEl

func newMulTable8(h FieldEl) *mulTable8 {
	var t mulTable8
	t[0x80] = h // 0b1000_0000: coefficient of x^0 within the byte
	for i := 0x40; i > 0; i >>= 1 {
		t[i] = mulByX(t[i*2])
	}
	for i := 2; i < 256; i *= 2 {
		for j := 1; j < i; j++ {
			t[i+j] = t[i].Xor(t[j])
		}
	}
	return &t
}

// reduce8 folds the 8 bits shifted out of a field element during a
// combined z*x^8 step back into the high word: entry b is the XOR of
// gcmR >> (7-i) for every set bit i, the net effect of the eight
// bit-serial reductions mulByX would perform one at a time.
var reduce8 [256]uint64

func init() {
	for b := 0; b < 256; b++ {
		var r uint64
		for i := 0; i < 8; i++ {
			if b>>i&1 == 1 {
				r ^= gcmR >> (7 - i)
			}
		}
		reduce8[b] = r
	}
}

// mul multiplies y by the hash subkey via byte-wise Horner: z = z*x^8
// (one shift plus a table-folded reduction) then one 256-entry fold per
// byte, low bytes first (they hold the highest-degree coefficients).
func (t *mulTable8) mul(y FieldEl) FieldEl {
	var z FieldEl
	word := y.Lo
	for i := 0; i < 16; i++ {
		if i == 8 {
			word = y.Hi
		}
		b := word & 0xff
		word >>= 8
		rb := z.Lo & 0xff
		z.Lo = z.Lo>>8 | z.Hi<<56
		z.Hi = z.Hi>>8 ^ reduce8[rb]
		e := &t[b]
		z.Hi ^= e.Hi
		z.Lo ^= e.Lo
	}
	return z
}

// GHASH computes the GHASH function of SP 800-38D over the given blocks
// with hash subkey h. Data is processed in 16-byte blocks; a short final
// block is zero-padded (callers compose AAD/ciphertext/length blocks).
type GHASH struct {
	table *mulTable8
	y     FieldEl
}

// NewGHASH creates a GHASH instance keyed by the 16-byte hash subkey.
// The 256-entry table build is a per-subkey cost; key it once and reuse
// (GCM caches it per key).
func NewGHASH(h []byte) *GHASH {
	return &GHASH{table: newMulTable8(LoadEl(h))}
}

// Update absorbs data, zero-padding the final short block if any.
func (g *GHASH) Update(data []byte) {
	for len(data) >= BlockSize {
		g.y = g.table.mul(g.y.Xor(LoadEl(data[:BlockSize])))
		data = data[BlockSize:]
	}
	if len(data) > 0 {
		var block [BlockSize]byte
		copy(block[:], data)
		g.y = g.table.mul(g.y.Xor(LoadEl(block[:])))
	}
}

// UpdateLengths absorbs the standard GCM length block (bit lengths of AAD
// and ciphertext).
func (g *GHASH) UpdateLengths(aadBytes, ctBytes int) {
	var block [BlockSize]byte
	binary.BigEndian.PutUint64(block[0:8], uint64(aadBytes)*8)
	binary.BigEndian.PutUint64(block[8:16], uint64(ctBytes)*8)
	g.Update(block[:])
}

// Sum writes the current GHASH value into a 16-byte slice and returns it.
func (g *GHASH) Sum(dst []byte) []byte {
	if len(dst) < BlockSize {
		panic("aesgcm: ghash sum buffer too short")
	}
	g.y.Store(dst[:BlockSize])
	return dst[:BlockSize]
}

// Reset restores the initial state, keeping the subkey.
func (g *GHASH) Reset() { g.y = FieldEl{} }

// HPowers precomputes powers of the hash subkey H. The paper's TLS DSA
// computes the i-th powers of H "in strides of 4" as soon as the source
// buffer is registered, so the GHASH contributions of different 64-byte
// cachelines (4 AES blocks each) have no dependency chain (§V-A). Powers
// are 1-indexed: Power(i) == H^i.
type HPowers struct {
	h      FieldEl
	powers []FieldEl // powers[i] = H^(i+1)
}

// Stride is the number of AES blocks per 64-byte cacheline; powers are
// generated stride-first to model the hardware's four parallel chains.
const Stride = 4

// NewHPowers precomputes n powers of the subkey. The generation order
// models the DSA: four independent multiplication chains, one per block
// lane, each advancing by H^4 per step.
func NewHPowers(h []byte, n int) *HPowers {
	he := LoadEl(h)
	hp := &HPowers{h: he, powers: make([]FieldEl, n)}
	if n == 0 {
		return hp
	}
	// Seed the first stride serially: H^1..H^4.
	hp.powers[0] = he
	for i := 1; i < Stride && i < n; i++ {
		hp.powers[i] = hp.powers[i-1].Mul(he)
	}
	if n <= Stride {
		return hp
	}
	h4 := hp.powers[Stride-1]
	// Four independent lanes: lane L computes H^(L+1), H^(L+5), ...
	for lane := 0; lane < Stride; lane++ {
		for i := lane + Stride; i < n; i += Stride {
			hp.powers[i] = hp.powers[i-Stride].Mul(h4)
		}
	}
	return hp
}

// Power returns H^i (1-indexed). It panics if i is out of the
// precomputed range, mirroring the fixed-size Config Memory region that
// holds the powers in hardware.
func (p *HPowers) Power(i int) FieldEl {
	if i < 1 || i > len(p.powers) {
		panic("aesgcm: H power out of precomputed range")
	}
	return p.powers[i-1]
}

// Count returns how many powers were precomputed.
func (p *HPowers) Count() int { return len(p.powers) }
