package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/vtime"
)

var updateTraceGolden = flag.Bool("update-trace-golden", false,
	"rewrite testdata/trace_golden.json from the current output")

// traceWorkload drives a cross-node workload that exercises every traced
// command shape reachable from the public API: a write and kernel on node
// A, a read through node B (forcing a migration of the dirty replica), and
// an intra-context copy.
func traceWorkload(t testing.TB, rt *core.Runtime) {
	t.Helper()
	devs := rt.Devices(protocol.DeviceGPU)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgram(incrSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	qA, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	qB, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qA.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("incr")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, int32(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := qA.EnqueueKernel(k, []int{4}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := qA.EnqueueCopy(buf, dst, 0, 0, 16, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := qB.EnqueueRead(buf, 0, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := qA.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := qB.Finish(); err != nil {
		t.Fatal(err)
	}
}

// tracedRun executes the workload on a fresh cluster and returns the
// Chrome export.
func tracedRun(t testing.TB) []byte {
	t.Helper()
	rt, cleanup := startRuntime(t, 2)
	defer cleanup()
	tr := trace.New()
	rt.SetTracer(tr)
	traceWorkload(t, rt)
	var buf bytes.Buffer
	if err := rt.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterministicAcrossReruns is the determinism oracle: the same
// seeded workload, with its P2P push/await migrations, must export a
// byte-identical trace on every run. The subtest is named for the delta
// migration the workload exercises.
func TestTraceDeterministicAcrossReruns(t *testing.T) {
	t.Run("delta", func(t *testing.T) {
		first := tracedRun(t)
		for i := 0; i < 2; i++ {
			if again := tracedRun(t); !bytes.Equal(first, again) {
				t.Fatalf("rerun %d exported a different trace (%d vs %d bytes)",
					i+1, len(first), len(again))
			}
		}
		if len(first) < 100 {
			t.Fatalf("suspiciously small trace: %q", first)
		}
	})
}

// TestTraceSpanTreeWellFormed checks the structural invariants of every
// recorded span: non-negative intervals, phases parented by a root with
// the same (run, node, event) that covers them, and event IDs only on
// command spans.
func TestTraceSpanTreeWellFormed(t *testing.T) {
	rt, cleanup := startRuntime(t, 2)
	defer cleanup()
	tr := trace.New()
	rt.SetTracer(tr)
	traceWorkload(t, rt)
	// A command's spans are recorded when its response is consumed, and the
	// migration's push rides the service queue, which the workload's
	// Finish calls do not wait for: drain as an export does.
	if err := rt.WriteTrace(io.Discard); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	type key struct {
		run     int
		node    string
		eventID uint64
	}
	roots := map[key]trace.Span{}
	var kinds [16]int
	for _, s := range spans {
		kinds[s.Kind]++
		if s.End < s.Start {
			t.Fatalf("negative span %+v", s)
		}
		if s.Kind.IsRoot() {
			if s.EventID == 0 {
				t.Fatalf("root span without event ID: %+v", s)
			}
			roots[key{s.Run, s.Node, s.EventID}] = s
		}
	}
	for _, s := range spans {
		if !s.Kind.IsPhase() {
			continue
		}
		root, ok := roots[key{s.Run, s.Node, s.EventID}]
		if !ok {
			t.Fatalf("orphan phase span %+v", s)
		}
		if s.Start < root.Start || s.End > root.End {
			t.Fatalf("phase %+v escapes root %+v", s, root)
		}
	}
	for _, want := range []trace.Kind{trace.KindWrite, trace.KindRead,
		trace.KindCopy, trace.KindKernel, trace.KindWire,
		trace.KindRegister, trace.KindQueueWait, trace.KindExec,
		trace.KindWireIn} {
		if kinds[want] == 0 {
			t.Errorf("workload recorded no %v spans", want)
		}
	}
	// The cross-node read migrates the dirty replica: some migration-path
	// root (p2p push/await or relay push) must appear.
	if kinds[trace.KindPushRange]+kinds[trace.KindAwaitPush]+kinds[trace.KindMigrate] == 0 {
		t.Error("cross-node read recorded no migration spans")
	}
}

// TestTraceSessionOverride: a session-level tracer captures that session's
// commands even when the runtime has no tracer attached.
func TestTraceSessionOverride(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	sess := rt.OpenSession("tenant-x")
	tr := trace.New()
	sess.SetTracer(tr)

	ctx, err := sess.CreateContext(rt.Devices(protocol.DeviceGPU))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(rt.Devices(protocol.DeviceGPU)[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWrite(buf, 0, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("session tracer recorded nothing")
	}
	for _, s := range spans {
		if s.Tenant != "tenant-x" {
			t.Fatalf("span from wrong tenant: %+v", s)
		}
	}
}

// TestTraceGolden pins the exact Perfetto JSON of a tiny single-node
// write → kernel → read sequence. Regenerate with:
//
//	go test ./internal/core -run TestTraceGolden -update-trace-golden
func TestTraceGolden(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	tr := trace.New()
	rt.SetTracer(tr)

	dev := rt.Devices(protocol.DeviceGPU)
	ctx, err := rt.OpenSession("default").CreateContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.CreateProgram(incrSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(dev[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueWrite(buf, 0, mem.F32Bytes([]float32{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("incr")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArg(1, int32(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueKernel(k, []int{4}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.EnqueueRead(buf, 0, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Finish(); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	if err := rt.WriteTrace(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateTraceGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-trace-golden)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("trace diverged from golden file (regenerate with -update-trace-golden if intended)\ngot:\n%s\nwant:\n%s",
			got.String(), want)
	}
}

// TestTraceAdmissionAndMetrics: admission spans recorded through a
// FairQueue-style direct Run.Add land in the same export, and the metrics
// surface includes their histogram.
func TestTraceAdmissionAndMetrics(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	tr := trace.New()
	run := rt.SetTracer(tr)
	run.Add(trace.Span{Kind: trace.KindAdmission, Tenant: "t0",
		Start: vtime.Time(10), End: vtime.Time(1010)})

	var m bytes.Buffer
	if err := rt.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	out := m.String()
	for _, want := range []string{
		"haocl_commands_total",
		"haocl_device_expected_free_virtual_seconds",
		`haocl_spans_total{kind="admission",tenant="t0"} 1`,
	} {
		if !bytes.Contains(m.Bytes(), []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	var c bytes.Buffer
	if err := rt.WriteTrace(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(c.Bytes(), []byte(`"admission"`)) {
		t.Fatalf("admission span missing from chrome export:\n%s", c.String())
	}
}

// BenchmarkEnqueueWrite measures the hot enqueue path; run with -benchmem.
// The traced=off case must show the same allocs/op as the untraced path
// always had — the nil-run fast path adds none. The count is process-wide
// and runs through Finish, so the in-process node's share of every command
// is in it, as in the ladder's core.enqueue_write_allocs; stopped before
// Finish it read anything between the host's share and that
// (DESIGN.md §12).
func BenchmarkEnqueueWrite(b *testing.B) {
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("traced=%v", traced), func(b *testing.B) {
			rt, cleanup := startRuntime(b, 1)
			defer cleanup()
			if traced {
				rt.SetTracer(trace.New())
			}
			ctx, err := rt.OpenSession("default").CreateContext(rt.Devices(protocol.DeviceGPU))
			if err != nil {
				b.Fatal(err)
			}
			q, err := ctx.CreateQueue(rt.Devices(protocol.DeviceGPU)[0])
			if err != nil {
				b.Fatal(err)
			}
			buf, err := ctx.CreateBuffer(16)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.EnqueueWrite(buf, 0, payload); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := q.Finish(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
