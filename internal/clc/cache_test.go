package clc

import (
	"fmt"
	"sync"
	"testing"
)

// distinctSource returns a program no other test builds.
func distinctSource(tag string, i int) string {
	return fmt.Sprintf("__kernel void %s_%d(__global int* x) { x[0] = %d; }", tag, i, i)
}

func resetCache() {
	cache.mu.Lock()
	clear(cache.progs)
	cache.mu.Unlock()
}

func cachedSources() map[string]bool {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	held := make(map[string]bool, len(cache.progs))
	for src := range cache.progs {
		held[src] = true
	}
	return held
}

// TestCachedHit: the second build of a source gets the first one's Program
// itself, at the cost of no parse, while Parse goes on parsing.
func TestCachedHit(t *testing.T) {
	src := distinctSource("hit", 0)
	first, err := Cached(src)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := CacheStats()
	// An equal string with other backing bytes, as a node decodes it from
	// the wire: the key is the text.
	second, err := Cached(string([]byte(src)))
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("second Cached of one source returned another Program")
	}
	if h, m := CacheStats(); h != hits+1 || m != misses {
		t.Fatalf("a hit counted as %d hits, %d misses", h-hits, m-misses)
	}
	fresh, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == first {
		t.Fatal("Parse returned the cached Program: it must always parse")
	}
	if h, m := CacheStats(); h != hits+1 || m != misses {
		t.Fatal("Parse went through the cache")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = Cached(src) }); allocs != 0 {
		t.Fatalf("a hit allocates %.1f objects, want 0", allocs)
	}
}

// TestCacheBound feeds ten times the bound in distinct sources. The cache
// never exceeds the bound, and what it ends up holding is decided by the
// order of the sources alone — the last 64 of 640, since it empties itself
// on every 64th new one — not by map iteration order.
func TestCacheBound(t *testing.T) {
	resetCache()
	defer resetCache()
	const n = 10 * maxCached
	for i := 0; i < n; i++ {
		if _, err := Cached(distinctSource("bound", i)); err != nil {
			t.Fatal(err)
		}
		if held := len(cachedSources()); held > maxCached {
			t.Fatalf("after %d sources the cache holds %d, bound %d", i+1, held, maxCached)
		}
	}
	held := cachedSources()
	if len(held) != maxCached {
		t.Fatalf("cache holds %d programs after %d sources, want %d", len(held), n, maxCached)
	}
	for i := n - maxCached; i < n; i++ {
		if !held[distinctSource("bound", i)] {
			t.Fatalf("source %d of %d is not among the %d held", i, n, maxCached)
		}
	}
}

// TestCachedFailureNotCached: a source that does not build is parsed afresh
// each time, fails with the same diagnostic and leaves nothing behind.
func TestCachedFailureNotCached(t *testing.T) {
	resetCache()
	defer resetCache()
	const bad = "__kernel void broken(float* x) { }"
	_, wantErr := Parse(bad)
	if wantErr == nil {
		t.Fatal("source parses")
	}
	_, misses := CacheStats()
	for i := 0; i < 2; i++ {
		prog, err := Cached(bad)
		if prog != nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("attempt %d: Cached = %v, %v; want nil, %v", i, prog, err, wantErr)
		}
	}
	if _, m := CacheStats(); m != misses+2 {
		t.Fatalf("two failing builds parsed %d times, want 2", m-misses)
	}
	if held := cachedSources(); len(held) != 0 {
		t.Fatalf("a failed parse was cached: %v", held)
	}
}

// TestCachedConcurrent: goroutines building one new source at once may each
// parse it, but all leave with the same Program. Run under -race.
func TestCachedConcurrent(t *testing.T) {
	src := distinctSource("concurrent", 0)
	const n = 8
	progs := make([]*Program, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, err := Cached(src)
			if err != nil {
				t.Error(err)
			}
			progs[g] = prog
		}()
	}
	wg.Wait()
	for g, prog := range progs {
		if prog == nil || prog != progs[0] {
			t.Fatalf("goroutine %d got Program %p, goroutine 0 got %p", g, prog, progs[0])
		}
	}
}

// TestPunctTokenText pins what the lexer calls a one-byte token: the
// source's own byte for ASCII, and for a stray high byte the encoding of
// the rune with that value, as string(c) always produced.
func TestPunctTokenText(t *testing.T) {
	for c := 0; c < 256; c++ {
		b := byte(c)
		if isIdentStart(b) || b >= '0' && b <= '9' || b == '"' || b == '\'' || b == '#' ||
			b == ' ' || b == '\t' || b == '\r' || b == '\n' {
			continue
		}
		toks, err := Tokenize(string([]byte{'a', b, 'a'}))
		if err != nil {
			t.Fatalf("byte %#x: %v", b, err)
		}
		if len(toks) != 4 || toks[1].Kind != TokPunct || toks[1].Text != string(rune(b)) || toks[1].Col != 2 {
			t.Fatalf("byte %#x lexed as %+v, want one TokPunct %q at column 2", b, toks, string(rune(b)))
		}
	}
}
