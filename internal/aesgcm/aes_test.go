package aesgcm

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// The inverse cipher below has no caller outside the tests (GCM only
// runs AES forward); it is the other half of the encrypt/decrypt
// round-trip checks.

var (
	isbox [256]byte

	// GF(2^8) constant-multiplication tables for InvMixColumns.
	mul9, mul11, mul13, mul14 [256]byte
)

func init() {
	for i := 0; i < 256; i++ {
		isbox[sbox[i]] = byte(i)
		b := byte(i)
		mul9[i] = gf8Mul(b, 9)
		mul11[i] = gf8Mul(b, 11)
		mul13[i] = gf8Mul(b, 13)
		mul14[i] = gf8Mul(b, 14)
	}
}

func invMixColumnsWord(w uint32) uint32 {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], w)
	var o [4]byte
	o[0] = mul14[b[0]] ^ mul11[b[1]] ^ mul13[b[2]] ^ mul9[b[3]]
	o[1] = mul9[b[0]] ^ mul14[b[1]] ^ mul11[b[2]] ^ mul13[b[3]]
	o[2] = mul13[b[0]] ^ mul9[b[1]] ^ mul14[b[2]] ^ mul11[b[3]]
	o[3] = mul11[b[0]] ^ mul13[b[1]] ^ mul9[b[2]] ^ mul14[b[3]]
	return binary.BigEndian.Uint32(o[:])
}

// decSchedule derives the equivalent inverse cipher's key schedule:
// reverse round order and apply InvMixColumns to the middle round keys.
func (c *Cipher) decSchedule() []uint32 {
	dec := make([]uint32, 4*(c.rounds+1))
	for i := 0; i <= c.rounds; i++ {
		for j := 0; j < 4; j++ {
			w := c.enc[4*(c.rounds-i)+j]
			if i != 0 && i != c.rounds {
				w = invMixColumnsWord(w)
			}
			dec[4*i+j] = w
		}
	}
	return dec
}

// Decrypt decrypts one 16-byte block from src into dst (may alias).
func (c *Cipher) Decrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aesgcm: block too short")
	}
	dec := c.decSchedule()
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ dec[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ dec[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ dec[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ dec[3]
	for r := 1; r < c.rounds; r++ {
		t0 := decRound(s0, s3, s2, s1) ^ dec[4*r]
		t1 := decRound(s1, s0, s3, s2) ^ dec[4*r+1]
		t2 := decRound(s2, s1, s0, s3) ^ dec[4*r+2]
		t3 := decRound(s3, s2, s1, s0) ^ dec[4*r+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	r := c.rounds
	t0 := invFinalRound(s0, s3, s2, s1) ^ dec[4*r]
	t1 := invFinalRound(s1, s0, s3, s2) ^ dec[4*r+1]
	t2 := invFinalRound(s2, s1, s0, s3) ^ dec[4*r+2]
	t3 := invFinalRound(s3, s2, s1, s0) ^ dec[4*r+3]
	binary.BigEndian.PutUint32(dst[0:4], t0)
	binary.BigEndian.PutUint32(dst[4:8], t1)
	binary.BigEndian.PutUint32(dst[8:12], t2)
	binary.BigEndian.PutUint32(dst[12:16], t3)
}

// decRound computes one column of InvSubBytes+InvShiftRows+InvMixColumns
// for the equivalent inverse cipher.
func decRound(a, b, c, d uint32) uint32 {
	x0 := isbox[a>>24]
	x1 := isbox[b>>16&0xff]
	x2 := isbox[c>>8&0xff]
	x3 := isbox[d&0xff]
	return uint32(mul14[x0]^mul11[x1]^mul13[x2]^mul9[x3])<<24 |
		uint32(mul9[x0]^mul14[x1]^mul11[x2]^mul13[x3])<<16 |
		uint32(mul13[x0]^mul9[x1]^mul14[x2]^mul11[x3])<<8 |
		uint32(mul11[x0]^mul13[x1]^mul9[x2]^mul14[x3])
}

func invFinalRound(a, b, c, d uint32) uint32 {
	return uint32(isbox[a>>24])<<24 | uint32(isbox[b>>16&0xff])<<16 |
		uint32(isbox[c>>8&0xff])<<8 | uint32(isbox[d&0xff])
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// FIPS-197 Appendix C known-answer vectors.
func TestAESKnownAnswers(t *testing.T) {
	cases := []struct{ key, pt, ct string }{
		{"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"},
		{"000102030405060708090a0b0c0d0e0f1011121314151617", "00112233445566778899aabbccddeeff", "dda97ca4864cdfe06eaf70a0ec0d7191"},
		{"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "00112233445566778899aabbccddeeff", "8ea2b7ca516745bfeafc49904b496089"},
	}
	for _, c := range cases {
		cipher, err := NewCipher(unhex(t, c.key))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16)
		cipher.Encrypt(got, unhex(t, c.pt))
		if want := unhex(t, c.ct); !bytes.Equal(got, want) {
			t.Errorf("key %s: enc = %x, want %x", c.key, got, want)
		}
		back := make([]byte, 16)
		cipher.Decrypt(back, got)
		if want := unhex(t, c.pt); !bytes.Equal(back, want) {
			t.Errorf("key %s: dec = %x, want %x", c.key, back, want)
		}
	}
}

func TestAESInvalidKeySizes(t *testing.T) {
	for _, n := range []int{0, 8, 15, 17, 31, 33} {
		if _, err := NewCipher(make([]byte, n)); err == nil {
			t.Errorf("key size %d accepted", n)
		}
	}
}

// TestAESMatchesStdlib runs the T-table cipher against crypto/aes for
// every key size.
func TestAESMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ks := range []int{16, 24, 32} {
		key := make([]byte, ks)
		rng.Read(key)
		ours, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdaes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			pt := make([]byte, 16)
			rng.Read(pt)
			a, b := make([]byte, 16), make([]byte, 16)
			ours.Encrypt(a, pt)
			ref.Encrypt(b, pt)
			if !bytes.Equal(a, b) {
				t.Fatalf("key=%d enc mismatch: %x vs %x", ks, a, b)
			}
			ours.Decrypt(a, b)
			if !bytes.Equal(a, pt) {
				t.Fatalf("key=%d dec mismatch", ks)
			}
		}
	}
}

func TestAESEncryptDecryptInverse(t *testing.T) {
	f := func(key [16]byte, pt [16]byte) bool {
		c, err := NewCipher(key[:])
		if err != nil {
			return false
		}
		var ct, back [16]byte
		c.Encrypt(ct[:], pt[:])
		c.Decrypt(back[:], ct[:])
		return back == pt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAESInPlace(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	buf := []byte("0123456789abcdef")
	orig := append([]byte(nil), buf...)
	c.Encrypt(buf, buf)
	if bytes.Equal(buf, orig) {
		t.Fatal("in-place encrypt did nothing")
	}
	c.Decrypt(buf, buf)
	if !bytes.Equal(buf, orig) {
		t.Fatal("in-place round trip failed")
	}
}

func TestAESShortBlockPanics(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	for _, f := range []func(){
		func() { c.Encrypt(make([]byte, 16), make([]byte, 15)) },
		func() { c.Encrypt(make([]byte, 15), make([]byte, 16)) },
		func() { c.Decrypt(make([]byte, 16), make([]byte, 15)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on short block")
				}
			}()
			f()
		}()
	}
}

func TestSboxIsPermutationAndInverse(t *testing.T) {
	seen := map[byte]bool{}
	for i := 0; i < 256; i++ {
		v := sbox[i]
		if seen[v] {
			t.Fatalf("sbox not a permutation: duplicate %#x", v)
		}
		seen[v] = true
		if isbox[v] != byte(i) {
			t.Fatalf("isbox[sbox[%d]] = %d", i, isbox[v])
		}
	}
	// FIPS-197 spot values.
	if sbox[0x00] != 0x63 || sbox[0x53] != 0xed || sbox[0xff] != 0x16 {
		t.Fatalf("sbox spot check failed: %x %x %x", sbox[0x00], sbox[0x53], sbox[0xff])
	}
}

func BenchmarkAESEncryptBlock(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	src := make([]byte, 16)
	dst := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(dst, src)
	}
}
