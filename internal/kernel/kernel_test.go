package kernel

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/haocl-project/haocl/internal/recycle"
)

func TestScalarEncodeDecode(t *testing.T) {
	if v := (Arg{Kind: ArgScalar, Data: EncodeScalar(int32(-7))}).Int(); v != -7 {
		t.Fatalf("int32: %d", v)
	}
	if v := (Arg{Kind: ArgScalar, Data: EncodeScalar(uint32(9))}).Uint32(); v != 9 {
		t.Fatalf("uint32: %d", v)
	}
	if v := (Arg{Kind: ArgScalar, Data: EncodeScalar(int64(1 << 40))}).Int64(); v != 1<<40 {
		t.Fatalf("int64: %d", v)
	}
	if v := (Arg{Kind: ArgScalar, Data: EncodeScalar(float32(1.5))}).Float32(); v != 1.5 {
		t.Fatalf("float32: %v", v)
	}
	if v := (Arg{Kind: ArgScalar, Data: EncodeScalar(3.75)}).Float64(); v != 3.75 {
		t.Fatalf("float64: %v", v)
	}
	if v := (Arg{Kind: ArgScalar, Data: EncodeScalar(42)}).Int(); v != 42 {
		t.Fatalf("int: %d", v)
	}
}

func TestScalarRoundTripProperty(t *testing.T) {
	checkF32 := func(f float32) bool {
		got := (Arg{Data: EncodeScalar(f)}).Float32()
		return got == f || (math.IsNaN(float64(got)) && math.IsNaN(float64(f)))
	}
	if err := quick.Check(checkF32, nil); err != nil {
		t.Fatal(err)
	}
	checkI64 := func(v int64) bool {
		return (Arg{Data: EncodeScalar(v)}).Int64() == v
	}
	if err := quick.Check(checkI64, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeScalarPanicsOnUnsupported(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeScalar accepted a struct")
		}
	}()
	EncodeScalar(struct{}{})
}

func TestTypedViewsAliasBuffer(t *testing.T) {
	raw := make([]byte, 16)
	arg := BufferArg(raw)
	f := arg.Float32s()
	if len(f) != 4 {
		t.Fatalf("len = %d", len(f))
	}
	f[2] = 1.0
	if raw[8] == 0 && raw[9] == 0 && raw[10] == 0 && raw[11] == 0 {
		t.Fatal("write through view did not reach backing bytes")
	}
	if got := arg.Int32s()[2]; got != int32(math.Float32bits(1.0)) {
		t.Fatalf("int view = %d", got)
	}
	if len(arg.Float64s()) != 2 || len(arg.Uint32s()) != 4 || len(arg.Bytes()) != 16 {
		t.Fatal("view lengths wrong")
	}
	var empty Arg
	if empty.Float32s() != nil || empty.Int32s() != nil {
		t.Fatal("empty views must be nil")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	spec := &Spec{Name: "k", Func: func(*Item, []Arg) {}}
	if err := r.Register(spec); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(spec); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(&Spec{Name: "", Func: spec.Func}); err == nil {
		t.Fatal("nameless spec accepted")
	}
	if err := r.Register(&Spec{Name: "f"}); err == nil {
		t.Fatal("functionless spec accepted")
	}
	got, err := r.Lookup("k")
	if err != nil || got != spec {
		t.Fatalf("Lookup: %v %v", got, err)
	}
	if _, err := r.Lookup("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if !r.Has("k") || r.Has("missing") {
		t.Fatal("Has broken")
	}
	r.MustRegister(&Spec{Name: "b", Func: spec.Func})
	names := r.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "k" {
		t.Fatalf("Names = %v", names)
	}
}

func TestMustRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(&Spec{Name: "x", Func: func(*Item, []Arg) {}})
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister did not panic on duplicate")
		}
	}()
	r.MustRegister(&Spec{Name: "x", Func: func(*Item, []Arg) {}})
}

func TestNormalizeRange(t *testing.T) {
	g, l, err := NormalizeRange([]int{128, 4}, []int{16, 2})
	if err != nil {
		t.Fatal(err)
	}
	if g != [3]int{128, 4, 1} || l != [3]int{16, 2, 1} {
		t.Fatalf("g=%v l=%v", g, l)
	}
	if _, _, err := NormalizeRange([]int{10}, []int{3}); !errors.Is(err, ErrBadNDRange) {
		t.Fatalf("indivisible local accepted: %v", err)
	}
	if _, _, err := NormalizeRange(nil, nil); !errors.Is(err, ErrBadNDRange) {
		t.Fatal("empty global accepted")
	}
	if _, _, err := NormalizeRange([]int{0}, nil); !errors.Is(err, ErrBadNDRange) {
		t.Fatal("zero dimension accepted")
	}
	if _, _, err := NormalizeRange([]int{1, 1, 1, 1}, nil); !errors.Is(err, ErrBadNDRange) {
		t.Fatal("4D range accepted")
	}
}

// TestRunCoversEveryWorkItem launches a 3D range and checks each work-item
// ran exactly once with consistent IDs.
func TestRunCoversEveryWorkItem(t *testing.T) {
	const gx, gy, gz = 8, 6, 2
	hits := make([]int32, gx*gy*gz)
	spec := &Spec{
		Name: "cover",
		Func: func(it *Item, args []Arg) {
			x, y, z := it.GlobalID(0), it.GlobalID(1), it.GlobalID(2)
			// Work-item function identities must be self-consistent.
			if it.GroupID(0)*it.LocalSize(0)+it.LocalID(0) != x {
				panic("inconsistent x identity")
			}
			if it.GlobalSize(0) != gx || it.GlobalSize(1) != gy || it.GlobalSize(2) != gz {
				panic("wrong global size")
			}
			if it.NumGroups(0) != gx/4 {
				panic("wrong group count")
			}
			atomic.AddInt32(&hits[(z*gy+y)*gx+x], 1)
		},
	}
	// Three workers share the groups over a channel; one worker is the
	// caller itself; both must visit every item once.
	for _, workers := range []int{3, 1} {
		clear(hits)
		err := Run(spec, Launch{Global: []int{gx, gy, gz}, Local: []int{4, 3, 1}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("%d workers: item %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestBarrierReduction implements a work-group tree reduction that is only
// correct if Barrier synchronizes all items of the group.
func TestBarrierReduction(t *testing.T) {
	const groups, local = 4, 32
	in := make([]byte, 4*groups*local)
	argIn := BufferArg(in)
	for i, f := range argIn.Float32s() {
		_ = f
		argIn.Float32s()[i] = 1
	}
	out := BufferArg(make([]byte, 4*groups))

	spec := &Spec{
		Name:        "reduce",
		UsesBarrier: true,
		Func: func(it *Item, args []Arg) {
			scratch := args[2].Float32s()
			lid := it.LocalID(0)
			scratch[lid] = args[0].Float32s()[it.GlobalID(0)]
			it.Barrier()
			for stride := it.LocalSize(0) / 2; stride > 0; stride /= 2 {
				if lid < stride {
					scratch[lid] += scratch[lid+stride]
				}
				it.Barrier()
			}
			if lid == 0 {
				args[1].Float32s()[it.GroupID(0)] = scratch[0]
			}
		},
	}
	err := Run(spec, Launch{
		Global: []int{groups * local},
		Local:  []int{local},
		Args:   []Arg{argIn, out, LocalArg(4 * local)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for g, v := range out.Float32s() {
		if v != local {
			t.Fatalf("group %d sum = %v, want %d", g, v, local)
		}
	}
}

// TestLocalMemoryIsPerGroup ensures groups do not share local memory.
func TestLocalMemoryIsPerGroup(t *testing.T) {
	out := BufferArg(make([]byte, 4*8))
	spec := &Spec{
		Name: "localcheck",
		Func: func(it *Item, args []Arg) {
			scratch := args[1].Int32s()
			// Everything a previous group might have written must be gone.
			if scratch[0] != 0 {
				panic("local memory leaked between groups")
			}
			scratch[0] = int32(it.GroupID(0) + 1)
			args[0].Int32s()[it.GroupID(0)] = scratch[0]
		},
	}
	err := Run(spec, Launch{
		Global: []int{8},
		Local:  []int{1},
		Args:   []Arg{out, LocalArg(64)},
		// Sequential workers so a shared buffer would definitely leak.
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for g, v := range out.Int32s() {
		if v != int32(g+1) {
			t.Fatalf("group %d wrote %d", g, v)
		}
	}
}

func TestRunValidation(t *testing.T) {
	okFunc := func(*Item, []Arg) {}
	if err := Run(nil, Launch{Global: []int{1}}); !errors.Is(err, ErrBadArgs) {
		t.Fatal("nil spec accepted")
	}
	spec := &Spec{Name: "v", Func: okFunc, NumArgs: 2}
	if err := Run(spec, Launch{Global: []int{1}, Args: []Arg{BufferArg(nil)}}); !errors.Is(err, ErrBadArgs) {
		t.Fatal("wrong arg count accepted")
	}
	if err := Run(&Spec{Name: "v2", Func: okFunc}, Launch{
		Global: []int{1}, Args: []Arg{{Kind: ArgBuffer}},
	}); !errors.Is(err, ErrBadArgs) {
		t.Fatal("nil buffer accepted")
	}
	if err := Run(&Spec{Name: "v3", Func: okFunc}, Launch{
		Global: []int{1}, Args: []Arg{{Kind: ArgLocal}},
	}); !errors.Is(err, ErrBadArgs) {
		t.Fatal("zero local size accepted")
	}
	if err := Run(&Spec{Name: "v4", Func: okFunc, UsesBarrier: true}, Launch{
		Global: []int{8},
	}); !errors.Is(err, ErrBadNDRange) {
		t.Fatal("barrier kernel with local size 1 accepted")
	}
}

func TestRunRecoversKernelPanic(t *testing.T) {
	spec := &Spec{Name: "boom", Func: func(*Item, []Arg) { panic("kaboom") }}
	err := Run(spec, Launch{Global: []int{4}})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

// TestInlineRunRecoversPerGroup: a launch run by its caller (one worker)
// recovers a panicking work-group like a pooled one does — the groups after
// it still run, and the first panic is the launch's error.
func TestInlineRunRecoversPerGroup(t *testing.T) {
	ran := make([]bool, 8)
	spec := &Spec{Name: "boom", Func: func(it *Item, _ []Arg) {
		g := it.GroupID(0)
		ran[g] = true
		if g == 2 || g == 5 {
			panic(fmt.Sprintf("group %d", g))
		}
	}}
	err := Run(spec, Launch{Global: []int{8}, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "group 2") {
		t.Fatalf("err = %v, want the first panic, of group 2", err)
	}
	for g, ok := range ran {
		if !ok {
			t.Fatalf("group %d never ran after an earlier group panicked", g)
		}
	}
}

// TestRunAllocationBudget: a launch without local memory that its caller
// runs allocates nothing, however many groups it has: its launch state
// comes from a pool.
func TestRunAllocationBudget(t *testing.T) {
	if recycle.Race {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	spec := &Spec{Name: "incr", Func: func(it *Item, args []Arg) { args[0].Float32s()[it.GlobalID(0)]++ }}
	for _, l := range []Launch{
		{Global: []int{8, 8}, Local: []int{8, 8}, Args: []Arg{BufferArg(make([]byte, 4*64))}, Workers: 4},
		{Global: []int{4096}, Local: []int{64}, Args: []Arg{BufferArg(make([]byte, 4*4096))}, Workers: 1},
	} {
		if got := testing.AllocsPerRun(20, func() {
			if err := Run(spec, l); err != nil {
				t.Fatal(err)
			}
		}); got > 0 {
			t.Errorf("a launch of %v by %v allocates %v objects, want 0", l.Global, l.Local, got)
		}
	}
}

func TestBarrierOutsideBarrierKernelPanics(t *testing.T) {
	spec := &Spec{Name: "misuse", Func: func(it *Item, _ []Arg) { it.Barrier() }}
	err := Run(spec, Launch{Global: []int{2}})
	if err == nil || !strings.Contains(err.Error(), "Barrier") {
		t.Fatalf("err = %v", err)
	}
}

func TestDefaultCost(t *testing.T) {
	spec := &Spec{Name: "c", Func: func(*Item, []Arg) {}}
	c := spec.CostOf([3]int{10, 4, 2}, nil)
	if c.Flops != 80 || c.Bytes != 0 {
		t.Fatalf("default cost = %+v", c)
	}
	spec.Cost = func(g [3]int, _ []Arg) Cost { return Cost{Flops: 1, Bytes: 2} }
	if c := spec.CostOf([3]int{1, 1, 1}, nil); c.Flops != 1 || c.Bytes != 2 {
		t.Fatalf("custom cost ignored: %+v", c)
	}
}
