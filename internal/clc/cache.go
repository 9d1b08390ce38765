package clc

import (
	"sync"
	"sync/atomic"
)

// maxCached bounds the parse cache. A process sees a handful of distinct
// programs (the paper's evaluation has five); the bound only keeps a caller
// that generates sources from growing the cache for ever.
const maxCached = 64

// programCache maps program source text to its parse. When it is full it
// is emptied rather than trimmed, so what it holds is a function of the
// sequence of sources alone, never of map iteration order.
type programCache struct {
	mu    sync.Mutex
	progs map[string]*Program // guarded by mu

	hits, misses atomic.Uint64
}

var cache = programCache{progs: make(map[string]*Program)}

// Cached returns the parse of src, parsing it only if this process has not
// parsed the same text before: every Context.CreateProgram and every
// node-side build of one source — second tenants, in-process nodes, the
// re-Build on a node that rejoins — share a single Program, which is why a
// Program is immutable. Only successes are kept; a source that does not
// parse is parsed again each time and fails with the same diagnostics.
// Two callers missing on one source at once both parse it and one result
// is kept.
func Cached(src string) (*Program, error) {
	cache.mu.Lock()
	prog := cache.progs[src]
	cache.mu.Unlock()
	if prog != nil {
		cache.hits.Add(1)
		return prog, nil
	}
	cache.misses.Add(1)
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if kept := cache.progs[src]; kept != nil {
		return kept, nil
	}
	if len(cache.progs) >= maxCached {
		clear(cache.progs)
	}
	cache.progs[src] = prog
	return prog, nil
}

// CacheStats reports how many Cached calls found their program and how many
// had to parse. It exists for tests that assert a path parses nothing; no
// production code reads it.
func CacheStats() (hits, misses uint64) {
	return cache.hits.Load(), cache.misses.Load()
}
