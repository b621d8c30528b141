package relay

import "encoding/binary"

// This file is the one definition of the synthetic object content
// (DESIGN.md §9). An object is a sequence of little-endian 64-bit
// words: word w is contentWord(w + contentSeed(name)), and the byte at
// position pos is byte pos&7 of word pos>>3. Origin, client verifier,
// the caches' serve-time check, experiments and tests all generate and
// check through the two kernels below, so the definition is part of the
// build: every process of one deployment must be the same commit.

// contentSeed folds an object's name (FNV-1a) into the offset added to
// every word index, so two names are two unrelated streams.
func contentSeed(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// contentWord mixes a seeded word index into eight content bytes: two
// multiplies, each followed by folding the well-mixed high half onto the
// low one, so every byte lane changes from word to word.
func contentWord(k uint64) uint64 {
	k *= 0x9e3779b97f4a7c15
	k ^= k >> 32
	k *= 0xd6e8feb86659fd93
	k ^= k >> 32
	return k
}

// headLen is how many of n bytes starting at pos lie before the first
// word boundary at or after pos.
func headLen(pos uint64, n int) int {
	if h := int(-pos & 7); h < n {
		return h
	}
	return n
}

// fillContent writes the content at [pos, pos+len(p)) of the stream
// seeded seed into p: the unaligned head byte by byte out of its one
// word; from the first word boundary on, 64-byte blocks by the vector
// kernel where the processor has one; the rest by the scalar loop,
// fillWords.
//
// It is kept out of line, as checkContent is: inlined into a caller
// that holds other live values across the loop (writeRange did), the
// register allocator spilled the loop's own counter and hash to the
// stack and the origin served at a third of the speed FillRange
// measured alone.
//
//go:noinline
func fillContent(seed, pos uint64, p []byte) {
	k := pos>>3 + seed
	if h := headLen(pos, len(p)); h > 0 {
		putWord(p[:h], contentWord(k)>>(8*(pos&7)))
		p = p[h:]
		k++
	}
	if blocks := len(p) >> 6; vectorWords && blocks > 0 {
		fillBlocks(&p[0], blocks, k)
		p = p[blocks<<6:]
		k += uint64(blocks) << 3
	}
	fillWords(p, k)
}

// fillWords is the scalar middle and tail: it writes the content from
// word k on into p, one mix and one 8-byte store per word (four words
// an iteration: the mixes are independent, and unrolled they overlap),
// the tail out of its one word.
func fillWords(p []byte, k uint64) {
	for len(p) >= 32 {
		binary.LittleEndian.PutUint64(p[24:32], contentWord(k+3))
		binary.LittleEndian.PutUint64(p[16:24], contentWord(k+2))
		binary.LittleEndian.PutUint64(p[8:16], contentWord(k+1))
		binary.LittleEndian.PutUint64(p[0:8], contentWord(k))
		p = p[32:]
		k += 4
	}
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, contentWord(k))
		p = p[8:]
		k++
	}
	putWord(p, contentWord(k))
}

// putWord stores the low-order len(p) bytes of x (at most eight) into
// p, least significant first.
func putWord(p []byte, x uint64) {
	for i := range p {
		p[i] = byte(x)
		x >>= 8
	}
}

// checkContent reports whether p equals the content at [pos,
// pos+len(p)) of the stream seeded seed, comparing against the
// generator in place instead of materialising the expected bytes: the
// same head, block and tail split as fillContent.
//
//go:noinline
func checkContent(seed, pos uint64, p []byte) bool {
	k := pos>>3 + seed
	if h := headLen(pos, len(p)); h > 0 {
		if !equalWord(p[:h], contentWord(k)>>(8*(pos&7))) {
			return false
		}
		p = p[h:]
		k++
	}
	if blocks := len(p) >> 6; vectorWords && blocks > 0 {
		if !checkBlocks(&p[0], blocks, k) {
			return false
		}
		p = p[blocks<<6:]
		k += uint64(blocks) << 3
	}
	return checkWords(p, k)
}

// checkWords is the scalar middle and tail of checkContent: 8-byte
// loads against the generator from word k on, four words an iteration.
func checkWords(p []byte, k uint64) bool {
	for len(p) >= 32 {
		d := binary.LittleEndian.Uint64(p[24:32]) ^ contentWord(k+3)
		d |= binary.LittleEndian.Uint64(p[16:24]) ^ contentWord(k+2)
		d |= binary.LittleEndian.Uint64(p[8:16]) ^ contentWord(k+1)
		d |= binary.LittleEndian.Uint64(p[0:8]) ^ contentWord(k)
		if d != 0 {
			return false
		}
		p = p[32:]
		k += 4
	}
	for len(p) >= 8 {
		if binary.LittleEndian.Uint64(p) != contentWord(k) {
			return false
		}
		p = p[8:]
		k++
	}
	return equalWord(p, contentWord(k))
}

// equalWord reports whether p (at most eight bytes) equals the low-order
// bytes of x, least significant first.
func equalWord(p []byte, x uint64) bool {
	for _, b := range p {
		if b != byte(x) {
			return false
		}
		x >>= 8
	}
	return true
}

// FillRange writes the deterministic content of object name at [off,
// off+len(p)) into p. Content is a cheap position-dependent pattern, so
// any byte range can be generated (and verified) without materializing
// the object.
func FillRange(name string, off int64, p []byte) {
	fillContent(contentSeed(name), uint64(off), p)
}

// VerifyRange reports whether p matches the canonical content of object
// name at offset off. It allocates nothing.
func VerifyRange(name string, off int64, p []byte) bool {
	return checkContent(contentSeed(name), uint64(off), p)
}

// Verifier checks a byte stream against the canonical synthetic content
// of an object, incrementally: each Verify call checks the next slice of
// the stream and advances the position, so a transfer can be validated
// chunk by chunk as bytes arrive instead of materializing the whole body
// for one VerifyRange call. Its whole state is the name's seed and the
// position, so it can be held by value and costs no allocation. Not safe
// for concurrent use; one Verifier per transfer.
type Verifier struct {
	seed uint64
	off  int64
}

// NewVerifier returns a verifier positioned at offset off of object name.
func NewVerifier(name string, off int64) *Verifier {
	return &Verifier{seed: contentSeed(name), off: off}
}

// Offset returns the object position the next Verify call checks against
// — after a mismatch, the start of the chunk that failed.
func (v *Verifier) Offset() int64 { return v.off }

// Verify checks p against the canonical content at the current position
// and advances past it. It reports false on a corrupt chunk, leaving
// Offset at that chunk's start.
func (v *Verifier) Verify(p []byte) bool {
	if !checkContent(v.seed, uint64(v.off), p) {
		return false
	}
	v.off += int64(len(p))
	return true
}
