package tlb

// This file implements the small PRINCE-style block cipher the
// RandomizedIndex TLB uses to key its set mapping (TLBcoat, "a randomized
// TLB architecture"). The cipher is the classic 64-bit PRINCE round
// structure — s-layer, involutive M' diffusion layer, round-constant and key
// additions — truncated to three rounds: set indexing sits on the lookup
// critical path, and three rounds already decorrelate the page-index bits an
// attacker controls from the set the translation lands in, which is all the
// randomization is asked to do.
//
// The specification is the bit-serial form (prince_ref_test.go): a GF(2)
// matrix multiply per 16-bit chunk for M' and a nibble-at-a-time s-layer.
// The TLB runs a table-driven equivalent instead, built at init from the
// same matrices and s-box:
//
//   - S acts on each nibble separately, so a 256-entry table substitutes a
//     whole byte at once;
//   - M' is linear over GF(2), so M'(x) is the XOR of M' applied to each
//     byte lane of x on its own — eight 256-entry tables;
//   - the two compose: princeMS[j][b] = M'(S(b) << 8j), so an s-layer
//     followed by M' costs eight lookups;
//   - linearity also splits the round-key additions, M'(a^k^RC) =
//     M'(a)^M'(k)^M'(RC), so the round constants fold into two
//     init-time constants and no per-key state is needed.
//
// TestPrinceTablesMatchReference and FuzzRandIdxCipher hold the table form
// to the specification, and the inverse cipher there proves it a
// permutation for every key.

// princeSbox is the PRINCE 4-bit s-box.
var princeSbox = [16]uint8{
	0xB, 0xF, 0x3, 0x2, 0xA, 0xC, 0x9, 0x1, 0x6, 0x7, 0x8, 0x0, 0xE, 0x5, 0xD, 0x4,
}

// princeM0 and princeM1 are the two 16×16 GF(2) matrices the PRINCE M'
// layer is built from. Each is an involution, which makes the whole M'
// layer self-inverse.
var princeM0 = [16]uint32{
	0x0111, 0x2220, 0x4404, 0x8088,
	0x1011, 0x0222, 0x4440, 0x8808,
	0x1101, 0x2022, 0x0444, 0x8880,
	0x1110, 0x2202, 0x4044, 0x0888,
}

var princeM1 = [16]uint32{
	0x1110, 0x2202, 0x4044, 0x0888,
	0x0111, 0x2220, 0x4404, 0x8088,
	0x1011, 0x0222, 0x4440, 0x8808,
	0x1101, 0x2022, 0x0444, 0x8880,
}

// Round constants RC1 and RC2 of PRINCE (digits of π).
const (
	princeRC1 = 0x13198a2e03707344
	princeRC2 = 0xa4093822299f31d0
)

// princeMul16 multiplies a 16-bit chunk by a GF(2) matrix.
func princeMul16(in uint64, mat *[16]uint32) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		if in>>i&1 != 0 {
			out ^= uint64(mat[i])
		}
	}
	return out
}

// princeMPrime applies the involutive M' diffusion layer bit-serially. It
// only generates the tables below; the cipher itself uses them.
func princeMPrime(x uint64) uint64 {
	return princeMul16(x&0xffff, &princeM0) |
		princeMul16(x>>16&0xffff, &princeM1)<<16 |
		princeMul16(x>>32&0xffff, &princeM1)<<32 |
		princeMul16(x>>48&0xffff, &princeM0)<<48
}

// The cipher's lookup tables, filled by init from the definitions above.
var (
	princeS8 [256]uint8     // s-box on both nibbles of a byte
	princeM  [8][256]uint64 // princeM[j][b] = M'(b << 8j)
	princeMS [8][256]uint64 // princeMS[j][b] = M'(S(b) << 8j)

	princeMRC1, princeMRC2 uint64 // M'(RC1), M'(RC2)
)

func init() {
	for b := range 256 {
		princeS8[b] = princeSbox[b>>4]<<4 | princeSbox[b&0xF]
	}
	for j := range 8 {
		for b := range 256 {
			princeM[j][b] = princeMPrime(uint64(b) << (8 * j))
			princeMS[j][b] = princeMPrime(uint64(princeS8[b]) << (8 * j))
		}
	}
	princeMRC1 = princeMPrime(princeRC1)
	princeMRC2 = princeMPrime(princeRC2)
}

// princeMTab computes tab's layer of x one byte lane at a time: M'(x) with
// princeM, M'(S(x)) with princeMS.
func princeMTab(tab *[8][256]uint64, x uint64) uint64 {
	return tab[0][uint8(x)] ^ tab[1][uint8(x>>8)] ^
		tab[2][uint8(x>>16)] ^ tab[3][uint8(x>>24)] ^
		tab[4][uint8(x>>32)] ^ tab[5][uint8(x>>40)] ^
		tab[6][uint8(x>>48)] ^ tab[7][uint8(x>>56)]
}

// princeS8Layer substitutes every nibble of x through the s-box.
func princeS8Layer(x uint64) uint64 {
	return uint64(princeS8[uint8(x)]) | uint64(princeS8[uint8(x>>8)])<<8 |
		uint64(princeS8[uint8(x>>16)])<<16 | uint64(princeS8[uint8(x>>24)])<<24 |
		uint64(princeS8[uint8(x>>32)])<<32 | uint64(princeS8[uint8(x>>40)])<<40 |
		uint64(princeS8[uint8(x>>48)])<<48 | uint64(princeS8[uint8(x>>56)])<<56
}

// princeEncrypt runs the three-round forward permutation under key. Round
// by round it computes S(M'(x^k^RC1)), then S(M'(·^k^RC2)), then
// M'(S(·^k)); u1 and u2 are the values entering the first two s-layers.
func princeEncrypt(x, key uint64) uint64 {
	u1 := princeMTab(&princeM, x^key) ^ princeMRC1
	u2 := princeMTab(&princeMS, u1) ^ princeMTab(&princeM, key) ^ princeMRC2
	return princeMTab(&princeMS, princeS8Layer(u2)^key)
}
