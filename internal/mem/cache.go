package mem

// Cache holds nothing: every memory comes from New and goes back with
// Release, through the one backing-store pool.
//
// Deprecated: bench/ is its last caller.
type Cache struct{}

// NewCache returns an empty Cache.
//
// Deprecated: bench/ is its last caller.
func NewCache() *Cache { return &Cache{} }
