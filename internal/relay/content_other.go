//go:build !amd64

package relay

// vectorWords is false off amd64: the content kernels run their scalar
// loop end to end, and the block kernels below are never called.
const vectorWords = false

func fillBlocks(p *byte, blocks int, k uint64) {
	panic("relay: no block kernel on this architecture")
}

func checkBlocks(p *byte, blocks int, k uint64) bool {
	panic("relay: no block kernel on this architecture")
}
