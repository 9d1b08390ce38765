package core_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/clc"
	"github.com/haocl-project/haocl/internal/mem"
)

// parses reports how many times the process-wide program cache has had to
// parse.
func parses() uint64 {
	_, misses := clc.CacheStats()
	return misses
}

// shareParseRuns numbers the runs of TestSessionsShareOneParse.
var shareParseRuns atomic.Int64

// TestSessionsShareOneParse: a source is parsed once per process. The
// first session to build it pays for the parse; its own nodes, and a second
// session's host side and nodes, find it, and both sessions hold the one
// Program.
func TestSessionsShareOneParse(t *testing.T) {
	rt, stop := startRuntime(t, 2)
	defer stop()
	// A source of its own per run: the cache is process-wide, so under
	// -count=2 a fixed one is already parsed when the second run starts.
	src := fmt.Sprintf("%s// as built by run %d of TestSessionsShareOneParse\n", incrSource, shareParseRuns.Add(1))
	before := parses()
	var shared *clc.Program
	for i, tenant := range []string{"first", "second"} {
		ctx, err := rt.OpenSession(tenant).CreateContext(rt.Devices(0))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ctx.CreateProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Build(); err != nil {
			t.Fatal(err)
		}
		if got := parses() - before; got != 1 {
			t.Fatalf("after session %d built on 2 nodes the source was parsed %d times, want 1", i+1, got)
		}
		if shared == nil {
			shared = prog.Parsed()
		}
		if prog.Parsed() != shared {
			t.Fatalf("session %d holds a Program of its own", i+1)
		}
	}
}

// TestRejoinParsesNothing: a crash, the recovery that follows and the
// rejoin of the restarted node — which re-builds every built program on
// the fresh process — parse nothing: the source was built before.
func TestRejoinParsesNothing(t *testing.T) {
	f := newRecoveryFixture(t, 2)
	victim := f.cc.cfg.Nodes[0].Name
	qs := f.queueOn(t, f.cc.cfg.Nodes[1].Name)
	if _, err := qs.EnqueueWrite(f.buf, 0, mem.F32Bytes([]float32{2, 7, 1, 8})); err != nil {
		t.Fatal(err)
	}
	hits, misses := clc.CacheStats()

	f.cc.kill(victim)
	f.cc.awaitDown(victim)
	if err := f.cc.rt.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	f.mustRead(t, qs, []float32{2, 7, 1, 8})
	f.cc.restart(victim)

	h, m := clc.CacheStats()
	if m != misses {
		t.Fatalf("crash, Recover and ReconnectNode parsed %d programs, want 0", m-misses)
	}
	if h == hits {
		t.Fatal("the rejoin re-built no program: the cache was never asked")
	}
}

// TestReconnectClosedServerThenReplaced: a rejoin races the restart. The
// crashed process's server is still bound at the address but closed, and
// the fresh one replaces it inside the back-off window. Dialing the closed
// server must fail as a dial — which ReconnectNode retries — and not hand
// out a connection whose handshake dies with EOF, which it does not retry.
func TestReconnectClosedServerThenReplaced(t *testing.T) {
	f := newRecoveryFixture(t, 2)
	victim := f.cc.cfg.Nodes[0].Name
	qs := f.queueOn(t, f.cc.cfg.Nodes[1].Name)
	if _, err := qs.EnqueueWrite(f.buf, 0, mem.F32Bytes([]float32{1, 6, 1, 8})); err != nil {
		t.Fatal(err)
	}
	f.cc.servers[victim].Close() // crashed, and still bound
	f.cc.alive[victim] = false
	f.mustRead(t, qs, []float32{1, 6, 1, 8})
	f.rejoinRacingBind(t, 0, []float32{1, 6, 1, 8})
}

// TestReconnectGivesUpAfterLastAttempt: a rejoin whose every dial fails —
// nothing is ever bound at the address again — backs off between its eight
// attempts (2 + 4 + ... + 128 = 254 ms) and returns after the last one,
// without sleeping another 256 ms in front of nothing.
func TestReconnectGivesUpAfterLastAttempt(t *testing.T) {
	f := newRecoveryFixture(t, 2)
	victim := f.cc.cfg.Nodes[0].Name
	qs := f.queueOn(t, f.cc.cfg.Nodes[1].Name)
	if _, err := qs.EnqueueWrite(f.buf, 0, mem.F32Bytes([]float32{5, 7, 7, 2})); err != nil {
		t.Fatal(err)
	}
	f.cc.kill(victim)
	f.mustRead(t, qs, []float32{5, 7, 7, 2}) // recovery done: the rejoin below only dials

	start := time.Now()
	err := f.cc.rt.ReconnectNode(victim)
	waited := time.Since(start)
	if err == nil {
		t.Fatal("rejoin of a node that is not there succeeded")
	}
	if waited < 250*time.Millisecond {
		t.Fatalf("rejoin gave up after %v: it did not back off through all its attempts", waited)
	}
	if waited >= 300*time.Millisecond {
		t.Fatalf("rejoin took %v to fail, want under 300 ms: it slept after its last attempt", waited)
	}
}

// TestSharedProgramIsNeverWritten holds clc.Program to its contract. The
// process-wide parse of a source is handed to every consumer there is —
// the host's CreateKernel, SetArg (refusals included) and launch-argument
// binding, each in-process node's CheckProgram, kernel creation and
// buildLaunchArgs — and must come out equal to the deep copy taken before.
func TestSharedProgramIsNeverWritten(t *testing.T) {
	rt, stop := startRuntime(t, 2)
	defer stop()
	src := incrSource + "// as built by TestSharedProgramIsNeverWritten\n"
	shared, err := clc.Cached(src)
	if err != nil {
		t.Fatal(err)
	}
	before := &clc.Program{}
	for _, k := range shared.Kernels {
		k.Params = append([]clc.Param(nil), k.Params...)
		k.ReqdWorkGroupSize = append([]int(nil), k.ReqdWorkGroupSize...)
		before.Kernels = append(before.Kernels, k)
	}

	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := prog.CreateKernel("no_such_kernel"); err == nil {
		t.Fatal("CreateKernel of an unknown name succeeded")
	}
	buf, err := ctx.CreateBuffer(16 * 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range devs {
		incr, err := prog.CreateKernel("incr")
		if err != nil {
			t.Fatal(err)
		}
		if err := incr.SetArg(0, int32(1)); err == nil {
			t.Fatal("scalar bound to a pointer parameter")
		}
		if err := incr.SetArg(1, buf); err == nil {
			t.Fatal("buffer bound to a scalar parameter")
		}
		if err := incr.SetArg(0, buf); err != nil {
			t.Fatal(err)
		}
		if err := incr.SetArg(1, int64(16)); err == nil {
			t.Fatal("8 bytes bound to an int parameter")
		}
		if err := incr.SetArg(1, int32(16)); err != nil {
			t.Fatal(err)
		}
		q, err := ctx.CreateQueue(dev)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.EnqueueKernel(incr, []int{16}, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := q.Finish(); err != nil {
			t.Fatal(err)
		}
	}

	if again, _ := clc.Cached(src); again != shared {
		t.Fatal("the runtime did not build from the shared Program")
	}
	if !reflect.DeepEqual(shared, before) {
		t.Fatalf("the shared Program changed under its consumers:\n was %+v\n  is %+v", before, shared)
	}
}
