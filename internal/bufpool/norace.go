//go:build !race

package bufpool

const RaceEnabled = false
