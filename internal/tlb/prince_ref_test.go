package tlb

import "testing"

// This file holds the bit-serial specification of the RI index cipher —
// the form TLBcoat's prince_gf2_mul_16 computes — and its inverse. The TLB
// runs the table-driven princeEncrypt of prince.go; the tests here hold it
// to this reference so the two cannot drift apart.

// princeSboxInv is the inverse of princeSbox.
var princeSboxInv = [16]uint8{
	0xB, 0x7, 0x3, 0x2, 0xF, 0xD, 0x8, 0x9, 0xA, 0x6, 0x4, 0x0, 0x5, 0xE, 0xC, 0x1,
}

// princeSLayer substitutes every nibble through the s-box.
func princeSLayer(x uint64) uint64 {
	var out uint64
	for i := 0; i < 64; i += 4 {
		out |= uint64(princeSbox[x>>i&0xF]) << i
	}
	return out
}

// princeSLayerInv substitutes every nibble through the inverse s-box.
func princeSLayerInv(x uint64) uint64 {
	var out uint64
	for i := 0; i < 64; i += 4 {
		out |= uint64(princeSboxInv[x>>i&0xF]) << i
	}
	return out
}

// princeEncryptRef runs the three-round forward permutation under key,
// bit-serially.
func princeEncryptRef(x, key uint64) uint64 {
	x = princeSLayer(princeMPrime(x ^ key ^ princeRC1))
	x = princeSLayer(princeMPrime(x ^ key ^ princeRC2))
	return princeMPrime(princeSLayer(x ^ key))
}

// princeDecrypt inverts princeEncryptRef: the rounds run backwards, M' is
// its own inverse, and the s-layer uses the inverse s-box.
func princeDecrypt(x, key uint64) uint64 {
	x = princeSLayerInv(princeMPrime(x)) ^ key
	x = princeMPrime(princeSLayerInv(x)) ^ key ^ princeRC2
	return princeMPrime(princeSLayerInv(x)) ^ key ^ princeRC1
}

// TestPrinceTablesMatchReference pins the table-driven cipher to the
// bit-serial reference: first on known-answer vectors, so a change that
// moved both forms together would still fail, then on a seeded stream of
// random (block, key) pairs.
func TestPrinceTablesMatchReference(t *testing.T) {
	tweak := uint64(princeASIDTweak)
	kats := []struct{ x, key, want uint64 }{
		{0x0000000000000000, 0x0000000000000000, 0xfa5d81d9a2c41be6},
		{0xffffffffffffffff, 0xffffffffffffffff, 0x77dad59ffbe41366},
		{0x0000000000000000, princeRC1, 0x45676fc0eaa197e1},
		{0x0000000000000000, princeRC2, 0x3e3d572f93579788},
		{0x0123456789abcdef, princeRC1, 0x5972e59d22d3b994},
		{0xfedcba9876543210, princeRC2, 0x87ebd4b66dbae2df},
		{0x0000000000000002, 0x0123456789abcdef ^ 5*tweak, 0x551b00807e037e65},
		{0x00000000deadbeef, 0x0123456789abcdef ^ 1*tweak, 0xa6882cfaf73c8096},
	}
	for _, v := range kats {
		if got := princeEncrypt(v.x, v.key); got != v.want {
			t.Errorf("princeEncrypt(%#x, %#x) = %#x, want %#x", v.x, v.key, got, v.want)
		}
		if got := princeEncryptRef(v.x, v.key); got != v.want {
			t.Errorf("princeEncryptRef(%#x, %#x) = %#x, want %#x", v.x, v.key, got, v.want)
		}
	}

	r := newRNG(0x7072696e6365)
	for i := 0; i < 1<<20; i++ {
		x, key := r.Uint64(), r.Uint64()
		if got, want := princeEncrypt(x, key), princeEncryptRef(x, key); got != want {
			t.Fatalf("pair %d: princeEncrypt(%#x, %#x) = %#x, reference %#x", i, x, key, got, want)
		}
	}
}

// princeSink keeps the cipher benchmarks' results live.
var princeSink uint64

// benchPrince chains each output into the next block, so successive
// encryptions cannot overlap and the figure is one encryption's latency, as
// on the RI TLB's lookup path.
func benchPrince(b *testing.B, enc func(x, key uint64) uint64) {
	x, key := uint64(0x2000>>12), uint64(0x0123456789abcdef)
	for i := 0; i < b.N; i++ {
		x = enc(x, key)
	}
	princeSink = x
}

func BenchmarkPrinceEncrypt(b *testing.B)          { benchPrince(b, princeEncrypt) }
func BenchmarkPrinceEncryptReference(b *testing.B) { benchPrince(b, princeEncryptRef) }
