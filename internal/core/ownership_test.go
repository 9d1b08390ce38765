package core_test

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/core"
	"github.com/haocl-project/haocl/internal/device"
	"github.com/haocl-project/haocl/internal/node"
	"github.com/haocl-project/haocl/internal/sim"
	"github.com/haocl-project/haocl/internal/transport"
)

// These tests pin down payload ownership on the host side and the bulk
// data path's allocation budget end to end (DESIGN.md §11).

// startTCPRuntime builds an in-process cluster of one-GPU nodes served on
// loopback TCP — the transport the allocation budget is stated for: the
// vectored write is a real writev there.
func startTCPRuntime(t testing.TB, gpuNodes int) *core.Runtime {
	t.Helper()
	cfg := cluster.Synthetic("ownership-test", 0, gpuNodes, 0, nil)
	icd := device.NewICD()
	sim.RegisterDrivers(icd, testRegistry())
	for i := range cfg.Nodes {
		devCfgs, err := cfg.Nodes[i].DeviceConfigs()
		if err != nil {
			t.Fatal(err)
		}
		n, err := node.New(node.Options{Name: cfg.Nodes[i].Name, Devices: devCfgs, ICD: icd,
			ExecWorkers: 1, Dialer: transport.TCPDialer{}})
		if err != nil {
			t.Fatal(err)
		}
		srv := n.Serve()
		if cfg.Nodes[i].Addr, err = srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
	}
	rt, err := core.Connect(core.Options{Config: cfg, Dialer: transport.TCPDialer{}, ClientName: "ownership-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i) + byte(i>>8)
	}
	return b
}

// TestEnqueueWriteCopySemantics: the caller may scribble over its slice the
// moment EnqueueWrite returns. The request frame — shipped later by the
// writer goroutine — and the command log must both hold the original bytes:
// read back from the node, and again after the node has crashed and
// recovery has replayed the log onto the survivor.
func TestEnqueueWriteCopySemantics(t *testing.T) {
	const size = 1 << 20
	f := newRecoveryFixture(t, 2)
	victim := f.cc.cfg.Nodes[0].Name
	qv := f.queueOn(t, victim)
	qs := f.queueOn(t, f.cc.cfg.Nodes[1].Name)
	buf, err := f.ctx.CreateBuffer(size)
	if err != nil {
		t.Fatal(err)
	}

	want := pattern(size, 7)
	data := append([]byte(nil), want...)
	if _, err := qv.EnqueueWrite(buf, 0, data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xEE
	}
	if _, err := qv.Finish(); err != nil {
		t.Fatal(err)
	}
	got, _, err := qv.EnqueueRead(buf, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("node replica holds the caller's later scribbles: the frame referenced the caller's slice")
	}

	f.cc.kill(victim)
	got, _, err = qs.EnqueueRead(buf, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("replayed contents differ from the bytes originally written: the log referenced the caller's slice")
	}
	if f.cc.rt.Metrics().ReplayedCommands == 0 {
		t.Fatal("the crash replayed nothing, so the log's copy was never exercised")
	}
}

// TestBroadcastCopySemantics is the same promise for Broadcast, whose one
// private copy serves every hop's frame and the log.
func TestBroadcastCopySemantics(t *testing.T) {
	const size = 256 << 10
	rt, cleanup := startRuntime(t, 3)
	defer cleanup()
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	var qs []*core.Queue
	for _, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	buf, err := ctx.CreateBuffer(size)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(size, 3)
	data := append([]byte(nil), want...)
	if _, err := ctx.Broadcast(buf, data, qs); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xEE
	}
	for i, q := range qs {
		got, _, err := q.EnqueueRead(buf, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("hop %d holds the caller's later scribbles", i)
		}
	}
}

// TestRelayPushShipsZeros: a span no replica owns was never written, so it
// migrates as a relay push of zeros — whatever is issued right behind it.
// Here a write of the very range the relay carries rides the same
// connection as the relay frame, which may still sit in the coalescer queue
// when the write is issued; the relayed contents must stay zeros, and the
// relay must have carried the whole span over the host NIC.
func TestRelayPushShipsZeros(t *testing.T) {
	const size = 1 << 20
	rt, cleanup := startRuntime(t, 2)
	defer cleanup()
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q0, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	q1, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}
	dst, err := ctx.CreateBuffer(size)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, size)
	for round := 0; round < 8; round++ {
		src, err := ctx.CreateBuffer(size)
		if err != nil {
			t.Fatal(err)
		}
		// Copying the never-written src on node 1 relays its zeros; the
		// write right behind it lands on node 1 (odd rounds) or node 0.
		before := rt.Metrics().HostWireBytes
		if _, err := q1.EnqueueCopy(src, dst, 0, 0, size); err != nil {
			t.Fatal(err)
		}
		if got, want := rt.Metrics().HostWireBytes-before, int64(core.ControlMsgBytes+size); got != want {
			t.Fatalf("round %d: the copy put %d modelled bytes on the host NIC, want one relay push of %d", round, got, want)
		}
		writer := q0
		if round%2 == 1 {
			writer = q1
		}
		if _, err := writer.EnqueueWrite(src, 0, bytes.Repeat([]byte{0xEE}, size)); err != nil {
			t.Fatal(err)
		}
		got, _, err := q1.EnqueueRead(dst, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: relayed contents include bytes of the later write", round)
		}
	}
}

// TestEnqueueReadDataIsTheCallers: what EnqueueRead returns is a view of
// the response frame's body, and that body is the caller's for good — a
// hundred further bulk reads on the same connection must not touch it.
func TestEnqueueReadDataIsTheCallers(t *testing.T) {
	const size = 128 << 10
	rt := startTCPRuntime(t, 1)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(size)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(size, 1)
	if _, err := q.EnqueueWrite(buf, 0, want); err != nil {
		t.Fatal(err)
	}
	first, _, err := q.EnqueueRead(buf, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		next := pattern(size, byte(i+2))
		if _, err := q.EnqueueWrite(buf, 0, next); err != nil {
			t.Fatal(err)
		}
		got, _, err := q.EnqueueRead(buf, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, next) {
			t.Fatalf("read %d returned wrong bytes", i)
		}
	}
	if !bytes.Equal(first, want) {
		t.Fatal("the first read's data changed under later reads: a response body was recycled")
	}
}

// TestClosedSessionsAreCollectable: closing a session must leave nothing
// in the runtime that reaches it. Session.Close used to cut itself out of
// Runtime.sessions with a bare append, which left the last closed session
// — and its whole command log — in the backing array's tail slot.
func TestClosedSessionsAreCollectable(t *testing.T) {
	rt, cleanup := startRuntime(t, 1)
	defer cleanup()
	keep := rt.OpenSession("keeper") // a live session, so the slice never empties
	defer keep.Close()

	const n = 5
	collected := make(chan struct{}, n)
	func() {
		sessions := make([]*core.Session, n)
		for i := range sessions {
			sessions[i] = rt.OpenSession("tenant")
			runtime.SetFinalizer(sessions[i], func(*core.Session) { collected <- struct{}{} })
		}
		// Close in an order that makes each position the vacated tail once.
		for _, i := range []int{4, 0, 2, 1, 3} {
			if err := sessions[i].Close(); err != nil {
				t.Fatal(err)
			}
		}
	}()
	deadline := time.After(10 * time.Second)
	for got := 0; got < n; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of %d closed sessions are still reachable after GC", n-got, n)
		}
	}
}

// allocPerByte returns the bytes allocated, process-wide, per payload byte
// moved by one run of op, and the objects one run allocates: each the
// median over rounds runs, with the collector off meanwhile so the payload
// pools stay warm. The median, because a sync.Pool is warm per P: a Get
// misses while the buffer it wants sits in another P's private slot, which
// costs a bounded number of fresh allocations (at most one per P) whenever
// they happen to fall. prep, if any, runs uncounted before every op.
func allocPerByte(rounds int, payload int64, prep, op func()) (perByte, objects float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bytesPer, objs := make([]float64, rounds), make([]float64, rounds)
	var before, after runtime.MemStats
	for i := range bytesPer {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		bytesPer[i] = float64(after.TotalAlloc-before.TotalAlloc) / float64(payload)
		objs[i] = float64(after.Mallocs - before.Mallocs)
	}
	sort.Float64s(bytesPer)
	sort.Float64s(objs)
	return bytesPer[rounds/2], objs[rounds/2]
}

// TestBulkDataPathAllocationBudget gates what a bulk payload may cost in
// allocations end to end — host, loopback TCP and in-process node counted
// together — in bytes allocated per payload byte moved:
//
//	write    0.0  the private copy shared by the command log and the frame
//	              lives in a pooled write record: each write supersedes the
//	              previous one, whose record it reuses
//	read     1.0  the response frame's body, which becomes the caller's
//	migrate  0.0  the destination's frame body is pooled, and freed by the
//	              rendezvous entry once its awaiter has copied it
//
// Everything else on the way is referenced, viewed or pooled. Each budget
// leaves a tenth of a payload byte for control messages and bookkeeping.
func TestBulkDataPathAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("moves a few hundred MiB")
	}
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	const chunk, big = 1 << 20, 16 << 20
	rt := startTCPRuntime(t, 2)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q0, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	q1, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(chunk)
	if err != nil {
		t.Fatal(err)
	}
	src, err := ctx.CreateBuffer(big)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := ctx.CreateBuffer(big)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	finish := func(q *core.Queue) {
		t.Helper()
		_, err := q.Finish()
		must(err)
	}
	data := pattern(chunk, 9)
	write := func() {
		_, err := q0.EnqueueWrite(buf, 0, data)
		must(err)
		finish(q0)
	}
	read := func() {
		got, _, err := q0.EnqueueRead(buf, 0, chunk)
		must(err)
		if got[chunk-1] != data[chunk-1] {
			t.Fatal("read returned wrong bytes")
		}
	}
	// Each migration needs src valid on node 0 only: a 16 MiB write there
	// (outside the measured interval) invalidates node 1's replica, and the
	// copy on node 1 then pulls all of it across node to node.
	bigData := pattern(big, 5)
	stale := func() {
		_, err := q0.EnqueueWrite(src, 0, bigData)
		must(err)
		finish(q0)
	}
	migrate := func() {
		_, err := q1.EnqueueCopy(src, dst, 0, 0, big)
		must(err)
		finish(q1)
	}

	// Warm the replicas and the connections.
	write()
	read()
	stale()
	migrate()
	check := func(what string, budget, got float64) {
		t.Helper()
		t.Logf("%s: %.3f B allocated per payload byte", what, got)
		if got > budget {
			t.Errorf("%s allocates %.3f B per payload byte, budget %.1f", what, got, budget)
		}
	}
	perByte := func(rounds int, payload int64, prep, op func()) float64 {
		b, _ := allocPerByte(rounds, payload, prep, op)
		return b
	}
	check("1 MiB EnqueueWrite+Finish", 0.1, perByte(15, chunk, nil, write))
	check("1 MiB EnqueueRead", 1.1, perByte(15, chunk, nil, read))
	check("16 MiB node-to-node migration", 0.1, perByte(7, big, stale, migrate))
	if m := rt.Metrics(); m.PeerWireBytes == 0 {
		t.Error("the migration never crossed a node-to-node link, so its budget was not exercised")
	}
}

// retainedHeap forces the collector until the payload pools are empty — a
// sync.Pool drops what it holds over two collections — and returns the
// bytes of live heap objects.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedHeapAllocationBudget gates what a buffer's contents keep alive
// process-wide (host, loopback TCP and both in-process nodes together) once
// a 16 MiB write on node 0 has been read back through node 1:
//
//	command log   1  EnqueueWrite's private copy, kept to replay the write
//	replicas      2  node 0's written copy and node 1's migrated one
//	host          0  the nodes hold the data; the host tracks validity only
//
// A host-side copy of the contents would be a fourth; the budget leaves a
// quarter of one for connections, pools and bookkeeping.
func TestRetainedHeapAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	const size = 16 << 20
	rt := startTCPRuntime(t, 2)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q0, err := ctx.CreateQueue(devs[0])
	if err != nil {
		t.Fatal(err)
	}
	q1, err := ctx.CreateQueue(devs[1])
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(size)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(size, 11)
	base := retainedHeap()
	if _, err := q0.EnqueueWrite(buf, 0, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := q1.EnqueueRead(buf, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back through node 1 returned different bytes")
	}
	if rt.Metrics().PeerWireBytes == 0 {
		t.Fatal("the read never migrated node to node, so node 1 holds no replica")
	}
	got = nil
	grew := int64(retainedHeap()) - int64(base)
	runtime.KeepAlive(data)
	const copies, budget = 3, 3*size + size/4
	t.Logf("retained heap grew %.2f MiB: %.2f copies of the contents (log + replicas = %d)",
		float64(grew)/(1<<20), float64(grew)/size, copies)
	if grew > budget {
		t.Errorf("retained heap grew %.2f MiB, budget %.2f MiB: %.2f copies of a %d MiB buffer, want the log's and the replicas' %d",
			float64(grew)/(1<<20), float64(budget)/(1<<20), float64(grew)/size, size>>20, copies)
	}
	runtime.KeepAlive(buf)
}

// TestServeRoundTripAllocationBudget gates what the serving layer's job — a
// blocking 4 KiB write, a kernel over it and a blocking read, the unit
// serve-mt repeats — may cost in allocations end to end (host, loopback TCP
// and in-process node counted together), in bytes allocated per payload
// byte. A mid-size payload is copied once per hop, when the writer encodes
// its message into the staging buffer, and allocated only where somebody
// keeps it (DESIGN.md §13 has the same table for the runtime before
// payloads were referenced from protocol.ReferenceFloor, which measured
// 10.4 here, and before writers encoded messages and request envelopes were
// pooled, 4.72):
//
//	host private copy   1.00  kept: the command log's pooled write record and the
//	                          request's payload; the kernel pins it, so it is
//	                          never recycled and each write misses the pool
//	host request        0     pooled; the coalescer queue holds it, and the writer
//	                          recycles it once it is staged
//	envelope, staging   0     the writer encodes it into its reused staging buffer
//	node request body   0     pooled: the request envelope's body goes back to the
//	                          pool once its last request has been answered
//	node command        0     pooled for a write and a launch, recycled by its lane
//	node read snapshot  0     pooled, freed once the reply's writer has staged it
//	reply, staging      0     as above
//	host response body  1.19  kept: handed to EnqueueRead's caller; 4 160 B in
//	                          the allocator's 4 864 B class
//	everything else     0.52  ~15 small objects: events, log entries, event records,
//	                          the read's command, frame reads
//	                          (TestSmallCommandAllocationBudget's)
//	total               2.71
//
// The budget leaves 0.6 B per payload byte for the small objects to move,
// not room for a third payload-sized allocation. A job allocates
// 17.03 objects (26.02 before its requests and commands were recycled);
// the object budget leaves one and a half, so a write or launch request or
// command that stopped being recycled fails here.
func TestServeRoundTripAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	const size, jobs, budget, objBudget = 4 << 10, 200, 3.3, 18.5
	rt := startTCPRuntime(t, 1)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
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
	k, err := prog.CreateKernel("incr")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.CreateBuffer(size)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []any{buf, int32(64)} {
		if err := k.SetArg(i, v); err != nil {
			t.Fatal(err)
		}
	}
	data := pattern(size, 3)
	dims := []int{64}
	events := make([]*core.Event, 0, 3*jobs)
	serve := func() {
		for i := 0; i < jobs; i++ {
			w, err := q.EnqueueWrite(buf, 0, data)
			if err != nil {
				t.Fatal(err)
			}
			l, err := q.EnqueueKernel(k, dims, dims, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, r, err := q.EnqueueRead(buf, 0, size)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != size || got[size-1] != data[size-1] {
				t.Fatal("read returned wrong bytes")
			}
			events = append(events, w, l, r)
		}
	}
	// A tenant releases a round's events when the round is over; the newest
	// still head the buffer's chain.
	release := func() {
		if len(events) == 0 {
			return
		}
		old := events[:len(events)-3]
		for _, ev := range old {
			if err := ev.Release(rt); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Flush(); err != nil {
			t.Fatal(err)
		}
		events = events[:copy(events, events[len(old):])]
	}
	serve() // warm the replica, the connection and the pools
	got, objs := allocPerByte(9, jobs*size, release, serve)
	t.Logf("4 KiB write + kernel + read: %.2f B allocated per payload byte, %.2f objects a job", got, objs/jobs)
	if got > budget {
		t.Errorf("4 KiB write + kernel + read allocates %.2f B per payload byte, budget %.1f", got, budget)
	}
	if objs/jobs > objBudget {
		t.Errorf("4 KiB write + kernel + read allocates %.2f objects a job, budget %.1f", objs/jobs, objBudget)
	}
}

// TestSmallCommandAllocationBudget gates the fixed cost of the small-command
// path, process-wide (host, loopback TCP and in-process node together), in
// objects allocated per tile: two pipelined 256 B writes, one single-group
// kernel launch and the release of their three events, the unit cmd-stream
// repeats. What a tile allocates, by layer (DESIGN.md §12 has the same
// table):
//
//	                write  kernel
//	host issue       3      2   private copy, Event (future, response and wait list inside), log entry; a launch: Event, log entry (argument snapshot and NDRange inside); the request is pooled, a launch's wire args inline in it
//	frame encode     0      0   the queue holds the request; the writer encodes it into its staging buffer, then recycles it
//	node register    1      1   event record (the response inside; a wake-up only for a waiter that comes first); the command is pooled (request, wait IDs, wait list, wire and launch args inside), and done is its envelope slot's, made once per slot
//	lane             0      0   the NDRange conversion is in the command, the launch state pooled; the lane recycles the command once done has run
//	reply            0      0   the reply writer encodes the response into its staging buffer
//	envelopes        0.2    0.2 frames read with their bodies, the host's sub-frame slabs; the node's envelope body is pooled and its envelope record reused
//	total            4.2    3.2
//
// A release is an ID in a vector of up to 256: 0.03 objects an event. The
// tile comes to 2 × 4.2 + 3.2 + 0.1 ≈ 11.7. On top of that a round pays
// for what its pools miss: a record is minted whenever more commands are in
// flight than ever before, which moves with scheduling. So the figure is
// the median of five rounds with the collector off (allocPerByte), as for
// the payload budgets: 11.4–12.9 on two vCPUs at GOMAXPROCS 1, 2 and 4
// (a single round with the collector running scattered over 12.6–17.2).
// The budget sits a tenth above the highest of those medians: one object
// more per command, three a tile, fails.
func TestSmallCommandAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	const budget = 14.5
	rt := startTCPRuntime(t, 1)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
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
	k, err := prog.CreateKernel("scale2")
	if err != nil {
		t.Fatal(err)
	}
	in, _ := ctx.CreateBuffer(256)
	out, _ := ctx.CreateBuffer(256)
	for i, v := range []any{in, out, int32(64)} {
		if err := k.SetArg(i, v); err != nil {
			t.Fatal(err)
		}
	}
	data := pattern(256, 1)
	dims := []int{64}
	const tiles = 1000
	events := make([]*core.Event, 0, 3*tiles+3)
	round := func() {
		for i := 0; i < tiles; i++ {
			a, err := q.EnqueueWrite(in, 0, data)
			if err != nil {
				t.Fatal(err)
			}
			b, err := q.EnqueueWrite(out, 0, data)
			if err != nil {
				t.Fatal(err)
			}
			c, err := q.EnqueueKernel(k, dims, dims, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, a, b, c)
		}
		if _, err := q.Finish(); err != nil {
			t.Fatal(err)
		}
		// The newest three still head the buffers' chains; everything
		// older goes in one burst, as a teardown releases it.
		old := events[:len(events)-3]
		for _, ev := range old {
			if err := ev.Release(rt); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Flush(); err != nil {
			t.Fatal(err)
		}
		events = events[:copy(events, events[len(old):])]
	}
	round()
	_, objs := allocPerByte(5, 1, nil, round)
	perTile := objs / tiles
	t.Logf("write + write + kernel + 3 releases allocate %.1f objects", perTile)
	if perTile > budget {
		t.Errorf("write + write + kernel + 3 releases allocate %.1f objects, budget %.1f", perTile, budget)
	}
}

// TestKernelLaunchAllocationBudget gates one pipelined kernel launch and
// the release of its event, process-wide: the kernel column of
// TestSmallCommandAllocationBudget's table, 3.2 objects, measured the same
// way. The argument snapshot (the kernel's own slice, shared until the
// next SetArg), the NDRange on the host, on the wire and in the node, the
// request and its wire args, the node's command, wire args and launch
// args, the wait IDs and the executor's launch state allocate nothing; a
// launch used to cost 18.3, and 8.2 before its request and command were
// recycled.
func TestKernelLaunchAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	const budget, launches = 4.5, 2000
	rt := startTCPRuntime(t, 1)
	devs := rt.Devices(0)
	ctx, err := rt.OpenSession("default").CreateContext(devs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctx.CreateQueue(devs[0])
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
	k, err := prog.CreateKernel("scale2")
	if err != nil {
		t.Fatal(err)
	}
	in, _ := ctx.CreateBuffer(256)
	out, _ := ctx.CreateBuffer(256)
	for i, v := range []any{in, out, int32(64)} {
		if err := k.SetArg(i, v); err != nil {
			t.Fatal(err)
		}
	}
	dims := []int{64}
	events := make([]*core.Event, 0, launches)
	round := func() {
		for i := 0; i < launches; i++ {
			ev, err := q.EnqueueKernel(k, dims, dims, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, ev)
		}
		if _, err := q.Finish(); err != nil {
			t.Fatal(err)
		}
		// The newest launch still heads the output buffer's chain.
		last := events[len(events)-1]
		for _, ev := range events[:len(events)-1] {
			if err := ev.Release(rt); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Flush(); err != nil {
			t.Fatal(err)
		}
		events = append(events[:0], last)
	}
	round()
	_, objs := allocPerByte(5, 1, nil, round)
	perLaunch := objs / launches
	t.Logf("a pipelined launch and its release allocate %.1f objects", perLaunch)
	if perLaunch > budget {
		t.Errorf("a pipelined launch and its release allocate %.1f objects, budget %.1f", perLaunch, budget)
	}
}
