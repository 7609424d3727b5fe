package hashing

import "math/bits"

// MurmurHash3 x64 128-bit variant by Austin Appleby, re-implemented from the
// public domain reference (MurmurHash3_x64_128). Only the low 64 bits are
// used by the samplers, but the full 128-bit digest is exposed for tests and
// for callers that want two independent 64-bit values from one pass.

const (
	murmur3C1 = 0x87c37b91114253d5
	murmur3C2 = 0x4cf5ad432745937f
)

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Murmur3Sum128 computes the 128-bit MurmurHash3 (x64 variant) of data under
// the given 32-bit style seed (the reference implementation takes a uint32
// seed; we accept uint64 and use it directly for both lanes, which preserves
// the avalanche properties).
func Murmur3Sum128(data []byte, seed uint64) (uint64, uint64) { return murmur3(data, seed) }

// Murmur3Sum64 returns the low 64 bits of the 128-bit MurmurHash3 digest.
func Murmur3Sum64(data []byte, seed uint64) uint64 {
	h1, _ := murmur3(data, seed)
	return h1
}

// Murmur3String64 computes the same digest as Murmur3Sum64 over the bytes of
// s, read in place.
func Murmur3String64(s string, seed uint64) uint64 {
	h1, _ := murmur3(s, seed)
	return h1
}

// murmur3 is the one MurmurHash3-x64-128 kernel behind every entry point.
func murmur3[T string | []byte](data T, seed uint64) (uint64, uint64) {
	h1 := seed
	h2 := seed
	total := len(data)

	// Body: 16-byte blocks.
	for len(data) >= 16 {
		k1 := uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16 | uint64(data[3])<<24 |
			uint64(data[4])<<32 | uint64(data[5])<<40 | uint64(data[6])<<48 | uint64(data[7])<<56
		k2 := uint64(data[8]) | uint64(data[9])<<8 | uint64(data[10])<<16 | uint64(data[11])<<24 |
			uint64(data[12])<<32 | uint64(data[13])<<40 | uint64(data[14])<<48 | uint64(data[15])<<56
		data = data[16:]

		k1 *= murmur3C1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= murmur3C2
		h1 ^= k1

		h1 = bits.RotateLeft64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= murmur3C2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= murmur3C1
		h2 ^= k2

		h2 = bits.RotateLeft64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	// Tail: up to 15 trailing bytes.
	var k1, k2 uint64
	switch len(data) & 15 {
	case 15:
		k2 ^= uint64(data[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(data[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(data[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(data[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(data[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(data[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(data[8])
		k2 *= murmur3C2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= murmur3C1
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(data[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(data[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(data[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(data[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(data[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(data[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(data[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(data[0])
		k1 *= murmur3C1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= murmur3C2
		h1 ^= k1
	}

	// Finalization.
	h1 ^= uint64(total)
	h2 ^= uint64(total)

	h1 += h2
	h2 += h1

	h1 = fmix64(h1)
	h2 = fmix64(h2)

	h1 += h2
	h2 += h1

	return h1, h2
}
