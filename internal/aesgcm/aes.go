// Package aesgcm is a from-scratch implementation of AES (128/192/256)
// and the Galois/Counter Mode of operation, structured the way
// SmartDIMM's TLS DSA computes it (§V-A of the paper):
//
//   - the CTR keystream is randomly accessible, so any 64-byte cacheline
//     of a TLS record can be (de/en)crypted independently and out of
//     order as rdCAS commands arrive at the DIMM (Observation 4:
//     incremental computability);
//   - GHASH powers of the hash subkey H are precomputed in strides of 4
//     to break the dependency chain between the GHASH contributions of
//     different cachelines (Fig. 7);
//   - the hash subkey H and the encrypted initialization vector EIV are
//     computed by the *caller* (the CPU side, one AES-NI instruction in
//     the paper) and handed to the engine through its config, mirroring
//     the CPU/DIMM split.
//
// Functional correctness is validated in the tests against NIST SP
// 800-38D vectors and cross-checked against crypto/cipher's GCM on
// random inputs.
package aesgcm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// sbox is generated at init from the GF(2^8) inverse plus the AES affine
// transform, rather than hardcoded, to keep the implementation
// auditable.
var sbox [256]byte

// te is the AES round table: te[x] is the MixColumns column that S(x)
// contributes from the top row, {2·S(x), S(x), S(x), 3·S(x)} from the most
// significant byte down. The other three rows contribute the same column
// rotated right by 8, 16 and 24 bits, so one 1 KB table serves a whole
// SubBytes+ShiftRows+MixColumns round.
var te [256]uint32

// gf8Mul multiplies two elements of GF(2^8) modulo x^8+x^4+x^3+x+1.
func gf8Mul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

func init() {
	// Build GF(2^8) inverses by brute force (256*256 is trivial), then
	// apply the affine transform.
	var inv [256]byte
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if gf8Mul(byte(a), byte(b)) == 1 {
				inv[a] = byte(b)
				break
			}
		}
	}
	for i := 0; i < 256; i++ {
		x := inv[i]
		// Affine: b_i = x_i ^ x_{i+4} ^ x_{i+5} ^ x_{i+6} ^ x_{i+7} ^ c_i
		y := x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63
		sbox[i] = y
		te[i] = uint32(gf8Mul(y, 2))<<24 | uint32(y)<<16 | uint32(y)<<8 | uint32(gf8Mul(y, 3))
	}
}

func rotl8(x byte, n uint) byte { return x<<n | x>>(8-n) }

// maxRoundKeys is the AES-256 schedule length: 4 words for each of its
// 15 round keys.
const maxRoundKeys = 4 * 15

// Cipher is an AES block cipher with an expanded key schedule. It holds
// only the encryption schedule: GCM runs the forward cipher in both
// directions.
type Cipher struct {
	enc    [maxRoundKeys]uint32 // round keys; the first 4*(rounds+1) are used
	rounds int
}

// NewCipher expands key (16, 24, or 32 bytes) into a Cipher.
func NewCipher(key []byte) (*Cipher, error) {
	c := new(Cipher)
	if err := c.expandKey(key); err != nil {
		return nil, err
	}
	return c, nil
}

// expandKey fills c's key schedule in place, so callers can keep a
// Cipher by value.
func (c *Cipher) expandKey(key []byte) error {
	switch len(key) {
	case 16, 24, 32:
	default:
		return fmt.Errorf("aesgcm: invalid key size %d", len(key))
	}
	nk := len(key) / 4
	rounds := nk + 6
	c.rounds = rounds
	for i := 0; i < nk; i++ {
		c.enc[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := uint32(1)
	for i := nk; i < 4*(rounds+1); i++ {
		t := c.enc[i-1]
		if i%nk == 0 {
			t = subWord(rotWord(t)) ^ (rcon << 24)
			rcon = uint32(gf8Mul(byte(rcon), 2))
		} else if nk > 6 && i%nk == 4 {
			t = subWord(t)
		}
		c.enc[i] = c.enc[i-nk] ^ t
	}
	return nil
}

func rotWord(w uint32) uint32 { return w<<8 | w>>24 }

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

// Encrypt encrypts one 16-byte block from src into dst (may alias).
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aesgcm: block too short")
	}
	// Walk the round keys four words at a time, so each round does one
	// bounds check instead of four.
	k := c.enc[:4*(c.rounds+1)]
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ k[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ k[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ k[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ k[3]
	for r := 1; r < c.rounds; r++ {
		k = k[4:]
		_ = k[3]
		t0 := encRound(s0, s1, s2, s3) ^ k[0]
		t1 := encRound(s1, s2, s3, s0) ^ k[1]
		t2 := encRound(s2, s3, s0, s1) ^ k[2]
		t3 := encRound(s3, s0, s1, s2) ^ k[3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	// Final round: SubBytes + ShiftRows, no MixColumns.
	k = k[4:]
	_ = k[3]
	t0 := finalRound(s0, s1, s2, s3) ^ k[0]
	t1 := finalRound(s1, s2, s3, s0) ^ k[1]
	t2 := finalRound(s2, s3, s0, s1) ^ k[2]
	t3 := finalRound(s3, s0, s1, s2) ^ k[3]
	binary.BigEndian.PutUint32(dst[0:4], t0)
	binary.BigEndian.PutUint32(dst[4:8], t1)
	binary.BigEndian.PutUint32(dst[8:12], t2)
	binary.BigEndian.PutUint32(dst[12:16], t3)
}

// encRound computes one column of SubBytes+ShiftRows+MixColumns for the
// state columns (a,b,c,d) where a supplies the top byte.
func encRound(a, b, c, d uint32) uint32 {
	return te[a>>24] ^ bits.RotateLeft32(te[b>>16&0xff], -8) ^
		bits.RotateLeft32(te[c>>8&0xff], -16) ^ bits.RotateLeft32(te[d&0xff], -24)
}

func finalRound(a, b, c, d uint32) uint32 {
	return uint32(sbox[a>>24])<<24 | uint32(sbox[b>>16&0xff])<<16 |
		uint32(sbox[c>>8&0xff])<<8 | uint32(sbox[d&0xff])
}
