package kernel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/haocl-project/haocl/internal/recycle"
)

// Item gives a work-item function its identity within the NDRange,
// mirroring the OpenCL work-item functions get_global_id, get_local_id,
// get_group_id, get_global_size, get_local_size and barrier().
type Item struct {
	gid    [3]int
	lid    [3]int
	group  [3]int
	global [3]int
	local  [3]int
	bar    *groupBarrier
}

// GlobalID returns get_global_id(dim).
func (it *Item) GlobalID(dim int) int { return it.gid[dim] }

// LocalID returns get_local_id(dim).
func (it *Item) LocalID(dim int) int { return it.lid[dim] }

// GroupID returns get_group_id(dim).
func (it *Item) GroupID(dim int) int { return it.group[dim] }

// GlobalSize returns get_global_size(dim).
func (it *Item) GlobalSize(dim int) int { return it.global[dim] }

// LocalSize returns get_local_size(dim).
func (it *Item) LocalSize(dim int) int { return it.local[dim] }

// NumGroups returns get_num_groups(dim).
func (it *Item) NumGroups(dim int) int { return it.global[dim] / it.local[dim] }

// Barrier synchronizes all work-items of the current work-group, like
// barrier(CLK_LOCAL_MEM_FENCE). Calling it from a kernel whose Spec does
// not set UsesBarrier panics: without goroutine-per-item execution the
// barrier would deadlock, and the panic converts that silent hang into a
// diagnosable error.
func (it *Item) Barrier() {
	if it.bar == nil {
		panic("kernel: Barrier called by a kernel not registered with UsesBarrier")
	}
	it.bar.await()
}

// groupBarrier is a reusable cyclic barrier for the work-items of one group.
type groupBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

func newGroupBarrier(n int) *groupBarrier {
	b := &groupBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *groupBarrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}

// Launch describes one NDRange execution request.
type Launch struct {
	// Global is the global work size, 1-3 dimensions.
	Global []int
	// Local is the work-group size; empty selects an implementation-
	// defined size (1 per dimension, the cheapest valid choice when the
	// kernel does not use work-group synchronization).
	Local []int
	// Args are the bound kernel arguments in declaration order.
	Args []Arg
	// Workers bounds work-group-level parallelism; 0 means GOMAXPROCS.
	Workers int
}

// Launch errors.
var (
	ErrBadNDRange = errors.New("kernel: invalid NDRange")
	ErrBadArgs    = errors.New("kernel: invalid arguments")
)

// normalize pads dims to 3 entries of at least 1.
func normalize(dims []int) ([3]int, error) {
	out := [3]int{1, 1, 1}
	if len(dims) == 0 || len(dims) > 3 {
		return out, fmt.Errorf("%w: %d dimensions", ErrBadNDRange, len(dims))
	}
	for i, d := range dims {
		if d <= 0 {
			return out, fmt.Errorf("%w: dimension %d is %d", ErrBadNDRange, i, d)
		}
		out[i] = d
	}
	return out, nil
}

// NormalizeRange validates and pads a global/local pair the way
// clEnqueueNDRangeKernel does: local defaults to 1s, and every global
// dimension must divide evenly by the local size.
func NormalizeRange(global, local []int) (g, l [3]int, err error) {
	g, err = normalize(global)
	if err != nil {
		return g, l, err
	}
	if len(local) == 0 {
		return g, [3]int{1, 1, 1}, nil
	}
	l, err = normalize(local)
	if err != nil {
		return g, l, err
	}
	for d := 0; d < 3; d++ {
		if g[d]%l[d] != 0 {
			return g, l, fmt.Errorf("%w: global size %d not divisible by local size %d in dim %d",
				ErrBadNDRange, g[d], l[d], d)
		}
	}
	return g, l, nil
}

// Run executes spec over the launch's NDRange. Work-groups run in parallel
// across a bounded worker pool — or on the calling goroutine when the pool
// would hold one worker; within a group, work-items run sequentially
// unless the kernel uses barriers, in which case each item gets a goroutine
// synchronized by a per-group cyclic barrier. Local-memory arguments are
// allocated fresh per work-group.
func Run(spec *Spec, l Launch) error {
	if spec == nil {
		return fmt.Errorf("%w: nil spec", ErrBadArgs)
	}
	if spec.NumArgs > 0 && len(l.Args) != spec.NumArgs {
		return fmt.Errorf("%w: kernel %q wants %d args, got %d",
			ErrBadArgs, spec.Name, spec.NumArgs, len(l.Args))
	}
	hasLocal := false
	for i, a := range l.Args {
		switch a.Kind {
		case ArgBuffer, ArgScalar:
			if a.Data == nil && a.Kind == ArgBuffer {
				return fmt.Errorf("%w: kernel %q arg %d: nil buffer", ErrBadArgs, spec.Name, i)
			}
		case ArgLocal:
			if a.LocalLen <= 0 {
				return fmt.Errorf("%w: kernel %q arg %d: local size %d", ErrBadArgs, spec.Name, i, a.LocalLen)
			}
			hasLocal = true
		default:
			return fmt.Errorf("%w: kernel %q arg %d: unknown kind %d", ErrBadArgs, spec.Name, i, a.Kind)
		}
	}
	global, local, err := NormalizeRange(l.Global, l.Local)
	if err != nil {
		return fmt.Errorf("kernel %q: %w", spec.Name, err)
	}

	// The launch state lives exactly as long as this call — runPool's
	// workers have exited before it returns — so it is pooled.
	r := ndranges.Get()
	defer r.release()
	*r = ndrange{
		spec:     spec,
		args:     l.Args,
		hasLocal: hasLocal,
		global:   global,
		local:    local,
		groups:   [3]int{global[0] / local[0], global[1] / local[1], global[2] / local[2]},
	}
	numGroups := r.groups[0] * r.groups[1] * r.groups[2]
	if spec.UsesBarrier && local[0]*local[1]*local[2] == 1 && numGroups > 1 {
		// Legal but almost certainly a mistake: a barrier over one item is
		// a no-op, so a missing local size silently changes semantics.
		return fmt.Errorf("%w: kernel %q uses barriers but was launched with local size 1",
			ErrBadNDRange, spec.Name)
	}

	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numGroups {
		workers = numGroups
	}

	var panicked any
	if workers == 1 {
		// One worker is the caller: a small launch (a single work-group, or
		// a node configured for one executor thread) pays for no goroutine,
		// channel or hand-off.
		for gi := 0; gi < numGroups; gi++ {
			if p := r.runGroup(gi, &r.callerItem); p != nil && panicked == nil {
				panicked = p
			}
		}
	} else {
		panicked = r.runPool(workers, numGroups)
	}
	if panicked != nil {
		return fmt.Errorf("kernel %q panicked: %v", spec.Name, panicked)
	}
	return nil
}

// runPool spreads the launch's work-groups over workers goroutines and
// returns the first panic any of them recovered.
func (r *ndrange) runPool(workers, numGroups int) (panicked any) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next = make(chan int)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			it := new(Item)
			for gi := range next {
				if p := r.runGroup(gi, it); p != nil {
					mu.Lock()
					if panicked == nil {
						panicked = p
					}
					mu.Unlock()
				}
			}
		}()
	}
	for gi := 0; gi < numGroups; gi++ {
		next <- gi
	}
	close(next)
	wg.Wait()
	return panicked
}

// ndrange is one validated launch, shared read-only by its workers.
type ndrange struct {
	spec                  *Spec
	args                  []Arg
	hasLocal              bool
	groups, global, local [3]int
	callerItem            Item // the scratch Item of a launch run by its caller
}

// ndranges pools launch state between Run calls.
var ndranges recycle.Pool[ndrange]

// release clears r, so the pool pins no spec or argument, and returns it.
func (r *ndrange) release() {
	*r = ndrange{}
	ndranges.Put(r)
}

// runGroup executes all work-items of the group with linear index gi and
// returns what the kernel panicked with, if it did: recovering per
// work-group means a panicking kernel neither kills its worker nor strands
// the groups still to run. it is the calling worker's scratch Item — the
// kernel function is opaque to escape analysis, so an Item per group would
// be a heap allocation per group.
func (r *ndrange) runGroup(gi int, it *Item) (panicked any) {
	defer func() { panicked = recover() }()

	var group [3]int
	group[0] = gi % r.groups[0]
	group[1] = (gi / r.groups[0]) % r.groups[1]
	group[2] = gi / (r.groups[0] * r.groups[1])
	local := r.local

	// Local-memory arguments get fresh per-group storage.
	groupArgs := r.args
	if r.hasLocal {
		groupArgs = make([]Arg, len(r.args))
		copy(groupArgs, r.args)
		for j := range groupArgs {
			if groupArgs[j].Kind == ArgLocal {
				groupArgs[j].Data = make([]byte, groupArgs[j].LocalLen)
			}
		}
	}

	if !r.spec.UsesBarrier {
		*it = Item{global: r.global, local: local, group: group}
		for lz := 0; lz < local[2]; lz++ {
			for ly := 0; ly < local[1]; ly++ {
				for lx := 0; lx < local[0]; lx++ {
					it.lid = [3]int{lx, ly, lz}
					it.gid = [3]int{
						group[0]*local[0] + lx,
						group[1]*local[1] + ly,
						group[2]*local[2] + lz,
					}
					r.spec.Func(it, groupArgs)
				}
			}
		}
		return nil
	}

	r.runBarrierGroup(group, groupArgs)
	return nil
}

// runBarrierGroup runs one group of a kernel that uses barriers: every
// work-item on its own goroutine, all of them meeting at the group's cyclic
// barrier. It is its own function so that what the goroutines capture is
// heap-allocated for barrier kernels only.
func (r *ndrange) runBarrierGroup(group [3]int, groupArgs []Arg) {
	local := r.local
	itemsPerGroup := local[0] * local[1] * local[2]
	bar := newGroupBarrier(itemsPerGroup)
	var wg sync.WaitGroup
	wg.Add(itemsPerGroup)
	for lz := 0; lz < local[2]; lz++ {
		for ly := 0; ly < local[1]; ly++ {
			for lx := 0; lx < local[0]; lx++ {
				it := &Item{
					lid:    [3]int{lx, ly, lz},
					group:  group,
					global: r.global,
					local:  local,
					bar:    bar,
					gid: [3]int{
						group[0]*local[0] + lx,
						group[1]*local[1] + ly,
						group[2]*local[2] + lz,
					},
				}
				go func() {
					defer wg.Done()
					r.spec.Func(it, groupArgs)
				}()
			}
		}
	}
	wg.Wait()
}
