package aesgcm

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by GCM operations.
var (
	ErrAuth   = errors.New("aesgcm: message authentication failed")
	ErrIVSize = errors.New("aesgcm: unsupported IV size")
)

// TagSize is the GCM authentication tag length used throughout (the TLS
// AEAD tag size).
const TagSize = 16

// StandardIVSize is the recommended 96-bit IV size of SP 800-38D, the
// only size TLS uses and the only one this implementation supports.
const StandardIVSize = 12

// GCM provides authenticated encryption using AES in Galois/Counter
// Mode. It is the software reference the SmartDIMM TLS DSA is checked
// against, and also the "CPU baseline" codec the offload backends use.
type GCM struct {
	cipher *Cipher
	h      [BlockSize]byte // hash subkey H = E_K(0^128)
	table  *mulTable8      // GHASH table, built once per key
}

// NewGCM wraps an AES key (16/24/32 bytes) in GCM mode.
func NewGCM(key []byte) (*GCM, error) {
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	g := &GCM{cipher: c}
	var zero [BlockSize]byte
	c.Encrypt(g.h[:], zero[:])
	g.table = newMulTable8(LoadEl(g.h[:]))
	return g, nil
}

// H returns the hash subkey E_K(0^128). In the paper's split, the CPU
// computes H and writes it to SmartDIMM's Config Memory.
func (g *GCM) H() []byte {
	out := make([]byte, BlockSize)
	copy(out, g.h[:])
	return out
}

// EIV returns E_K(J0), the encrypted initial counter block for the given
// 96-bit IV — the "EIV" the CPU supplies to the DSA so the final tag can
// be produced entirely near memory (§V-A, Fig. 7).
func (g *GCM) EIV(iv []byte) ([]byte, error) {
	j0, err := counterBlock(iv, 1)
	if err != nil {
		return nil, err
	}
	out := make([]byte, BlockSize)
	g.cipher.Encrypt(out, j0[:])
	return out, nil
}

// SubkeyAndEIV returns the hash subkey H = E_K(0^128) and the encrypted
// initial counter block EIV = E_K(J0) for a 96-bit iv: the two values
// the CPU computes and writes into SmartDIMM's Config Memory when it
// registers a record (§V-A). Unlike NewGCM it builds no GHASH table, so
// it costs one key schedule and two block encryptions.
func SubkeyAndEIV(key, iv []byte) (h, eiv []byte, err error) {
	var c Cipher
	if err := c.expandKey(key); err != nil {
		return nil, nil, err
	}
	j0, err := counterBlock(iv, 1)
	if err != nil {
		return nil, nil, err
	}
	out := make([]byte, 2*BlockSize)
	h, eiv = out[:BlockSize:BlockSize], out[BlockSize:]
	c.Encrypt(h, h) // out starts zeroed: H = E_K(0^128)
	c.Encrypt(eiv, j0[:])
	return h, eiv, nil
}

// counterBlock builds the CTR block for a 96-bit IV with the given
// 32-bit counter value.
func counterBlock(iv []byte, ctr uint32) ([BlockSize]byte, error) {
	var b [BlockSize]byte
	if len(iv) != StandardIVSize {
		return b, fmt.Errorf("%w: %d bytes", ErrIVSize, len(iv))
	}
	copy(b[:StandardIVSize], iv)
	binary.BigEndian.PutUint32(b[StandardIVSize:], ctr)
	return b, nil
}

// KeystreamAt fills dst with the CTR keystream bytes covering message
// offsets [offset, offset+len(dst)). Offset 0 is the first plaintext
// byte (counter value 2; counter 1 is reserved for the tag per the GCM
// spec). Random access is what makes the ULP incrementally computable
// (Observation 4): any 64-byte cacheline can be processed independently.
func (g *GCM) KeystreamAt(dst []byte, iv []byte, offset int) error {
	if len(iv) != StandardIVSize {
		return fmt.Errorf("%w: %d bytes", ErrIVSize, len(iv))
	}
	if offset < 0 {
		return errors.New("aesgcm: negative keystream offset")
	}
	// Build the counter block once and only bump the 32-bit counter per
	// block: no per-block IV copy, length check, or slice allocation.
	var cb, ks [BlockSize]byte
	copy(cb[:StandardIVSize], iv)
	blockIdx := offset / BlockSize
	within := offset % BlockSize
	written := 0
	for written < len(dst) {
		binary.BigEndian.PutUint32(cb[StandardIVSize:], uint32(blockIdx)+2)
		g.cipher.Encrypt(ks[:], cb[:])
		written += copy(dst[written:], ks[within:])
		within = 0
		blockIdx++
	}
	return nil
}

// Seal encrypts plaintext with the given 96-bit IV and additional data,
// returning ciphertext||tag appended to dst.
func (g *GCM) Seal(dst, iv, plaintext, aad []byte) ([]byte, error) {
	if len(iv) != StandardIVSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrIVSize, len(iv))
	}
	ret, out := sliceForAppend(dst, len(plaintext)+TagSize)
	ct := out[:len(plaintext)]
	if err := g.KeystreamAt(ct, iv, 0); err != nil {
		return nil, err
	}
	for i := range plaintext {
		ct[i] ^= plaintext[i]
	}
	tag, err := g.computeTag(iv, ct, aad)
	if err != nil {
		return nil, err
	}
	copy(out[len(plaintext):], tag)
	return ret, nil
}

// Open authenticates and decrypts ciphertext||tag, returning the
// plaintext appended to dst, or ErrAuth if the tag does not verify.
func (g *GCM) Open(dst, iv, sealed, aad []byte) ([]byte, error) {
	if len(sealed) < TagSize {
		return nil, ErrAuth
	}
	ct := sealed[:len(sealed)-TagSize]
	tag := sealed[len(sealed)-TagSize:]
	want, err := g.computeTag(iv, ct, aad)
	if err != nil {
		return nil, err
	}
	if subtle.ConstantTimeCompare(tag, want) != 1 {
		return nil, ErrAuth
	}
	ret, out := sliceForAppend(dst, len(ct))
	if err := g.KeystreamAt(out, iv, 0); err != nil {
		return nil, err
	}
	for i := range ct {
		out[i] ^= ct[i]
	}
	return ret, nil
}

// computeTag runs GHASH over aad||ct||lengths and encrypts with E_K(J0),
// reusing the per-key table instead of rebuilding it per record.
func (g *GCM) computeTag(iv, ct, aad []byte) ([]byte, error) {
	gh := GHASH{table: g.table}
	gh.Update(aad)
	gh.Update(ct)
	gh.UpdateLengths(len(aad), len(ct))
	var s [BlockSize]byte
	gh.Sum(s[:])
	eiv, err := g.EIV(iv)
	if err != nil {
		return nil, err
	}
	for i := range s {
		s[i] ^= eiv[i]
	}
	return s[:], nil
}

// Overhead returns the ciphertext expansion of Seal.
func (g *GCM) Overhead() int { return TagSize }

// sliceForAppend extends in by n bytes, reusing capacity when possible,
// following the pattern used by the standard library's AEADs.
func sliceForAppend(in []byte, n int) (head, tail []byte) {
	if total := len(in) + n; cap(in) >= total {
		head = in[:total]
	} else {
		head = make([]byte, total)
		copy(head, in)
	}
	tail = head[len(in):]
	return
}
