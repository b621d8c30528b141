package objcache

// MappedBytes totals the live mappings of every cache in the process,
// for the tests that drive a cache through its relay.
func MappedBytes() int64 { return mappedBytes.Load() }
