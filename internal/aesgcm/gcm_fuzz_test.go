package aesgcm

import (
	"bytes"
	stdaes "crypto/aes"
	stdcipher "crypto/cipher"
	"errors"
	"testing"
)

// FuzzGCMSealOpen is the differential check of the whole-record GCM:
// for any AES key size (16/24/32 bytes, picked by size), IV, AAD and
// plaintext, Seal's ciphertext and tag equal crypto/cipher's GCM Seal,
// Open recovers the plaintext, and Open rejects the sealed record with
// the bit at flip (mod its length) inverted.
func FuzzGCMSealOpen(f *testing.F) {
	f.Add(uint8(0), []byte("0123456789abcdef"), []byte("abcdefghijkl"), []byte{0x17, 0x03, 0x03, 0x00, 0x1c}, []byte("hello, world"), uint16(7))
	f.Add(uint8(1), []byte("0123456789abcdefghijklmn"), []byte{}, []byte{}, bytes.Repeat([]byte{0x5a}, 33), uint16(300))
	f.Add(uint8(2), []byte("0123456789abcdefghijklmnopqrstuv"), []byte("nonce-nonce!"), bytes.Repeat([]byte{0xaa}, 40), []byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, size uint8, key, iv, aad, pt []byte, flip uint16) {
		k := make([]byte, 16+8*int(size%3))
		copy(k, key)
		nonce := make([]byte, StandardIVSize)
		copy(nonce, iv)

		block, err := stdaes.NewCipher(k)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdcipher.NewGCM(block)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Seal(nil, nonce, pt, aad)

		g, err := NewGCM(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Seal(nil, nonce, pt, aad)
		if err != nil {
			t.Fatal(err)
		}
		n := len(pt)
		if !bytes.Equal(got[:n], want[:n]) {
			t.Fatalf("key %d B, len %d: ciphertext differs from crypto/cipher Seal", len(k), n)
		}
		if !bytes.Equal(got[n:], want[n:]) {
			t.Fatalf("key %d B, len %d: tag %x, crypto/cipher Seal %x", len(k), n, got[n:], want[n:])
		}

		back, err := g.Open(nil, nonce, got, aad)
		if err != nil || !bytes.Equal(back, pt) {
			t.Fatalf("key %d B, len %d: Open round trip failed: %v", len(k), n, err)
		}
		bad := bytes.Clone(got)
		bit := int(flip) % (8 * len(bad))
		bad[bit/8] ^= 1 << (bit % 8)
		if _, err := g.Open(nil, nonce, bad, aad); !errors.Is(err, ErrAuth) {
			t.Fatalf("key %d B, len %d: bit %d flipped: Open err = %v, want ErrAuth", len(k), n, bit, err)
		}
	})
}
