package hashing

// Murmur2-64A, the 64-bit variant of MurmurHash 2.0 by Austin Appleby,
// re-implemented from the public domain reference. This is the same family
// of hash the paper's Java implementation uses.

const (
	murmur2M = 0xc6a4a7935bd1e995
	murmur2R = 47
)

// Murmur2Sum64 computes the MurmurHash2-64A digest of data under the given
// seed.
func Murmur2Sum64(data []byte, seed uint64) uint64 { return murmur2(data, seed) }

// Murmur2String64 computes the same digest as Murmur2Sum64 over the bytes of
// s, read in place: hashing a string key copies nothing.
func Murmur2String64(s string, seed uint64) uint64 { return murmur2(s, seed) }

// murmur2 is the one MurmurHash2-64A kernel behind both entry points. It is
// the main cost of ingest: the site filter drops almost every arrival right
// after this hash.
func murmur2[T string | []byte](data T, seed uint64) uint64 {
	h := seed ^ uint64(len(data))*murmur2M

	// Body: process 8-byte blocks.
	for ; len(data) >= 8; data = data[8:] {
		k := uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16 | uint64(data[3])<<24 |
			uint64(data[4])<<32 | uint64(data[5])<<40 | uint64(data[6])<<48 | uint64(data[7])<<56

		k *= murmur2M
		k ^= k >> murmur2R
		k *= murmur2M

		h ^= k
		h *= murmur2M
	}

	// Tail: up to 7 trailing bytes.
	switch len(data) {
	case 7:
		h ^= uint64(data[6]) << 48
		fallthrough
	case 6:
		h ^= uint64(data[5]) << 40
		fallthrough
	case 5:
		h ^= uint64(data[4]) << 32
		fallthrough
	case 4:
		h ^= uint64(data[3]) << 24
		fallthrough
	case 3:
		h ^= uint64(data[2]) << 16
		fallthrough
	case 2:
		h ^= uint64(data[1]) << 8
		fallthrough
	case 1:
		h ^= uint64(data[0])
		h *= murmur2M
	}

	h ^= h >> murmur2R
	h *= murmur2M
	h ^= h >> murmur2R
	return h
}
