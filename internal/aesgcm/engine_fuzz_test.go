package aesgcm

import (
	"bytes"
	stdaes "crypto/aes"
	stdcipher "crypto/cipher"
	"errors"
	"testing"
)

// maxFuzzRecord bounds a fuzzed record at the TLS maximum plaintext
// (2^14 bytes), 256 cachelines.
const maxFuzzRecord = 16384

// cachelineOrder returns a permutation of 0..n-1 drawn from perm by a
// Fisher-Yates shuffle: each step takes its swap index from the next
// byte of perm (missing bytes read as 0), so any byte string maps to a
// valid order and the fuzzer can steer it.
func cachelineOrder(n int, perm []byte) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i, k := n-1, 0; i > 0; i, k = i-1, k+1 {
		var r int
		if k < len(perm) {
			r = int(perm[k])
		}
		if k+1 < len(perm) {
			r = r<<8 | int(perm[k+1])
		}
		j := r % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// runEngine feeds src through a fresh engine one cacheline at a time in
// the given order and returns the transformed record and the engine.
func runEngine(t *testing.T, dir Direction, cfg RecordConfig, src []byte, order []int) ([]byte, *CachelineEngine) {
	t.Helper()
	eng, err := NewCachelineEngine(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	for _, cl := range order {
		off := cl * CachelineSize
		end := min(off+CachelineSize, len(src))
		if err := eng.ProcessCacheline(dst[off:end], src[off:end], off); err != nil {
			t.Fatalf("cacheline %d: %v", cl, err)
		}
	}
	if !eng.Done() {
		t.Fatalf("engine not done after %d cachelines", len(order))
	}
	return dst, eng
}

// FuzzCachelineEngine is the differential check of §III Obs. 4
// (incremental computability): for any key, IV, AAD, record length and
// cacheline arrival order, the encrypt engine's ciphertext and tag equal
// crypto/cipher's GCM Seal, and the decrypt engine fed the sealed record
// in another order recovers the plaintext, verifies that tag and
// rejects the record with one bit flipped.
func FuzzCachelineEngine(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("abcdefghijkl"), []byte{0x17, 0x03, 0x03, 0x10, 0x10}, uint16(4096), []byte{7, 1, 9, 3})
	f.Add([]byte("0123456789abcdefghijklmn"), []byte("nonce-nonce!"), []byte{}, uint16(65), []byte{1})
	f.Add([]byte("0123456789abcdefghijklmnopqrstuv"), []byte{}, bytes.Repeat([]byte{0xaa}, 40), uint16(4096+33), []byte{0xff, 0x00, 0x80})
	f.Add([]byte{}, []byte{}, []byte{}, uint16(0), []byte{})
	f.Fuzz(func(t *testing.T, key, iv, aad []byte, length uint16, perm []byte) {
		// Stretch or cut the key to the nearest AES size at or below
		// its length (16 bytes minimum), and the IV to 96 bits.
		ks := 16
		if len(key) >= 32 {
			ks = 32
		} else if len(key) >= 24 {
			ks = 24
		}
		k := make([]byte, ks)
		copy(k, key)
		nonce := make([]byte, StandardIVSize)
		copy(nonce, iv)
		n := int(length) % (maxFuzzRecord + 1)
		pt := make([]byte, n)
		for i := range pt {
			pt[i] = byte(i*131+17) ^ k[i%ks]
		}

		// The oracle: the standard library's AES and GCM, which also
		// supply the H and EIV the CPU writes at registration.
		block, err := stdaes.NewCipher(k)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stdcipher.NewGCM(block)
		if err != nil {
			t.Fatal(err)
		}
		sealed := ref.Seal(nil, nonce, pt, aad)
		var h, j0, eiv [BlockSize]byte
		block.Encrypt(h[:], h[:])
		copy(j0[:], nonce)
		j0[BlockSize-1] = 1
		block.Encrypt(eiv[:], j0[:])
		gotH, gotEIV, err := SubkeyAndEIV(k, nonce)
		if err != nil || !bytes.Equal(gotH, h[:]) || !bytes.Equal(gotEIV, eiv[:]) {
			t.Fatalf("SubkeyAndEIV = %x, %x, %v; want %x, %x", gotH, gotEIV, err, h, eiv)
		}
		cfg := RecordConfig{Key: k, IV: nonce, H: h[:], EIV: eiv[:], AAD: aad, Length: n}

		cls := (n + CachelineSize - 1) / CachelineSize
		order := cachelineOrder(cls, perm)
		ct, enc := runEngine(t, Encrypt, cfg, pt, order)
		tag, err := enc.Tag()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ct, sealed[:n]) {
			t.Fatalf("len %d: ciphertext differs from crypto/cipher Seal", n)
		}
		if !bytes.Equal(tag, sealed[n:]) {
			t.Fatalf("len %d: tag %x, crypto/cipher Seal %x", n, tag, sealed[n:])
		}

		// Decrypt in the reverse order of the encryption.
		rev := make([]int, cls)
		for i, cl := range order {
			rev[cls-1-i] = cl
		}
		back, dec := runEngine(t, Decrypt, cfg, sealed[:n], rev)
		if !bytes.Equal(back, pt) {
			t.Fatalf("len %d: decrypt engine did not recover the plaintext", n)
		}
		if err := dec.VerifyTag(sealed[n:]); err != nil {
			t.Fatalf("len %d: decrypt engine rejected the stdlib tag: %v", n, err)
		}

		// Flip one bit of the sealed record, chosen by the inputs: in
		// the ciphertext the decrypt engine's tag changes, in the tag
		// the comparison fails. Either way the record must be rejected.
		bad := append([]byte(nil), sealed...)
		bit := (int(length) + len(perm)*7 + len(aad)) % (8 * len(bad))
		bad[bit/8] ^= 1 << (bit % 8)
		_, dec = runEngine(t, Decrypt, cfg, bad[:n], rev)
		if err := dec.VerifyTag(bad[n:]); !errors.Is(err, ErrAuth) {
			t.Fatalf("len %d: flipped bit %d accepted (err %v)", n, bit, err)
		}
	})
}

// TestProcessCachelineZeroAllocs pins the per-cacheline DSA path at zero
// heap allocations: the keystream, the ciphertext snapshot and the GHASH
// fold all stay on the stack.
func TestProcessCachelineZeroAllocs(t *testing.T) {
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	h, eiv, err := SubkeyAndEIV(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	size := (runs + 1) * CachelineSize // AllocsPerRun adds a warm-up call
	for _, dir := range []Direction{Encrypt, Decrypt} {
		eng, err := NewCachelineEngine(dir, RecordConfig{Key: key, IV: iv, H: h, EIV: eiv, Length: size})
		if err != nil {
			t.Fatal(err)
		}
		src := make([]byte, CachelineSize)
		dst := make([]byte, CachelineSize)
		off := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if err := eng.ProcessCacheline(dst, src, off); err != nil {
				t.Fatal(err)
			}
			off += CachelineSize
		})
		if allocs != 0 {
			t.Fatalf("direction %d: ProcessCacheline allocates %.1f times per call, want 0", dir, allocs)
		}
	}
}

// BenchmarkEngineRecord4K measures one 4 KB TLS record on the DSA's
// functional model: the CPU-side registration (H and EIV), the engine's
// registration (key schedule, stride-4 H powers, AAD and length folds)
// and its 64 ProcessCacheline calls.
func BenchmarkEngineRecord4K(b *testing.B) {
	key := []byte("0123456789abcdef")
	iv := []byte("abcdefghijkl")
	aad := []byte{0x17, 0x03, 0x03, 0x10, 0x10}
	const size = 4096
	pt := make([]byte, size)
	ct := make([]byte, size)
	b.SetBytes(size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, eiv, err := SubkeyAndEIV(key, iv)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := NewCachelineEngine(Encrypt, RecordConfig{Key: key, IV: iv, H: h, EIV: eiv, AAD: aad, Length: size})
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < size; off += CachelineSize {
			if err := eng.ProcessCacheline(ct[off:off+CachelineSize], pt[off:off+CachelineSize], off); err != nil {
				b.Fatal(err)
			}
		}
	}
}
