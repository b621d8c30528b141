package relay

// vectorWords reports whether the content kernels hand their
// 64-byte-aligned middle to the AVX-512 block kernels below. It is
// decided once, from the processor and the operating system.
var vectorWords = hasAVX512()

// fillBlocks writes blocks 64-byte blocks of content into p, word k
// first: eight words a zmm register, four registers an iteration.
//
//go:noescape
func fillBlocks(p *byte, blocks int, k uint64)

// checkBlocks reports whether the blocks 64-byte blocks at p are the
// content from word k on.
//
//go:noescape
func checkBlocks(p *byte, blocks int, k uint64) bool

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low half of XCR0, the register states the
// operating system saves on a context switch.
func xgetbv() (xcr0 uint32)

// hasAVX512 reports whether the block kernels may run: the processor
// has AVX512F (VPMULLQ's zmm form also needs AVX512DQ) and the
// operating system saves the SSE, AVX and the three AVX-512 states
// (opmask, upper halves of ZMM0-15, ZMM16-31).
func hasAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17
	if _, b, _, _ := cpuid(7, 0); b&(avx512f|avx512dq) != avx512f|avx512dq {
		return false
	}
	const states = 0xE6 // SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	return xgetbv()&states == states
}
