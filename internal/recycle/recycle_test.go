package recycle

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type record struct {
	id   uint64
	data [4]int
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestPutTwicePanicsUnderRace: under the race detector a second Put of a
// record nobody took out again panics, in a single pool and in a pool of
// an array, and even when the record's reset ran in between.
func TestPutTwicePanicsUnderRace(t *testing.T) {
	if !Race {
		t.Skip("the double-put check is a race-detector build's")
	}
	var p Pool[record]
	r := p.Get()
	p.Put(r)
	*r = record{id: ^uint64(0)}
	mustPanic(t, "a second Put", func() { p.Put(r) })

	var ps [3]Pool[[64]byte]
	b := ps[2].Get()
	ps[2].Put(b)
	mustPanic(t, "a second Put into a class pool", func() { ps[2].Put(b) })
}

// TestGetAfterPutHandsRecordBackOnce: a record Put comes back from a later
// Get (the pool may drop it: under the race detector sync.Pool drops a
// quarter of what it is given), never from two, and can be put back again
// once taken. A pool with nothing to give makes a zero record.
func TestGetAfterPutHandsRecordBackOnce(t *testing.T) {
	var p Pool[record]
	if r := p.Get(); *r != (record{}) {
		t.Fatalf("a new record reads %+v, want zero", *r)
	}
	reused := 0
	for i := 0; i < 100; i++ {
		r := p.Get()
		p.Put(r)
		a, b := p.Get(), p.Get()
		if a == b {
			t.Fatal("one Put handed one record to two Gets")
		}
		if a == r || b == r {
			reused++
		}
		p.Put(a)
		p.Put(b)
	}
	if reused == 0 {
		t.Fatal("no Get handed back a record that was Put")
	}
}

// TestHoldsLastReleaseGivesBack: with several goroutines releasing at once,
// exactly one Release reports the last, and only once every owner has
// let go; a record that counts no owners takes none and gives nothing back.
func TestHoldsLastReleaseGivesBack(t *testing.T) {
	const owners = 8
	for round := 0; round < 200; round++ {
		var h Holds
		h.Set(1)
		for i := 1; i < owners; i++ {
			if !h.Hold() {
				t.Fatal("Hold refused on a record with an owner")
			}
		}
		var let, last atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < owners; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				let.Add(1)
				if h.Release() {
					if n := let.Load(); n != owners {
						t.Errorf("the record was given back with %d of %d owners let go", n, owners)
					}
					last.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := last.Load(); n != 1 {
			t.Fatalf("%d Releases reported the last, want 1", n)
		}
		if n := h.Count(); n != -1 {
			t.Fatalf("a record given back counts %d, want -1", n)
		}
	}
	var none Holds
	if none.Hold() || none.Release() || none.Count() != 0 {
		t.Fatal("a record that counts no owners took one or gave itself back")
	}
}

// TestHoldsReleasePastLastPanicsUnderRace: a record given back is not
// one that counts no owners. Under the race detector a Hold or Release
// past the last panics; otherwise each such Release reports nothing and
// counts one less, so a test can see it.
func TestHoldsReleasePastLastPanicsUnderRace(t *testing.T) {
	var h Holds
	h.Set(2)
	if h.Release() || !h.Release() {
		t.Fatal("the second of two Releases did not report the last")
	}
	if !Race {
		if h.Hold() || h.Release() || h.Count() != -2 {
			t.Fatalf("a Hold or Release past the last took effect or was not counted: count %d, want -2", h.Count())
		}
		return
	}
	mustPanic(t, "a Release past the last", func() { h.Release() })
	mustPanic(t, "a Hold past the last", func() { h.Hold() })
}

// TestPoisonUnderRace: Poison overwrites under the race detector and
// writes nothing otherwise.
func TestPoisonUnderRace(t *testing.T) {
	b := []byte{1, 2, 3}
	Poison(b)
	want := byte(1)
	if Race {
		want = PoisonByte
	}
	if b[0] != want {
		t.Fatalf("poisoned byte reads %#x, want %#x (race detector: %v)", b[0], want, Race)
	}
}

// TestNoPoolOutsideRecycle: every pooled record goes through this package,
// so no non-test Go file of the repository outside it declares a
// sync.Pool.
func TestNoPoolOutsideRecycle(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "internal/recycle" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		syncName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" {
				syncName = "sync"
				if imp.Name != nil {
					syncName = imp.Name.Name
				}
			}
		}
		if syncName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pool" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == syncName {
					t.Errorf("%s: a sync.Pool outside internal/recycle; use recycle.Pool", fset.Position(sel.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
