package core

import (
	"io"
	"sort"

	"github.com/haocl-project/haocl/internal/profile"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/vtime"
)

// SetTracer attaches a tracer to the runtime: every command issued by any
// session records its span tree until the tracer is swapped or detached
// (SetTracer(nil)). Each attachment is one trace.Run — sequential
// attachments (bench legs on fresh clusters, all starting at vtime 0)
// export as separate Perfetto process groups. Returns the run handle so
// harness code (FairQueue admission spans) can record into the same run.
func (rt *Runtime) SetTracer(t *trace.Tracer) *trace.Run {
	r := t.NewRun(rt.clientName)
	rt.trc.Store(r)
	return r
}

// WriteTrace exports everything the attached tracer has recorded in
// Chrome trace-event format (an empty trace when none is attached). A
// command's spans are recorded when its response is consumed, so the
// pipelines are drained first: without that, whether a migration's push
// made it into the export depended on how far its background watcher
// (watchPush) had got.
func (rt *Runtime) WriteTrace(w io.Writer) error {
	for _, s := range rt.allSessions() {
		s.drainPendingEvents()
	}
	return rt.trc.Load().Tracer().WriteChrome(w)
}

// SetTracer attaches a tracer to this session only, overriding the
// runtime-level tracer for its commands.
func (s *Session) SetTracer(t *trace.Tracer) *trace.Run {
	r := t.NewRun(s.tenant)
	s.trc.Store(r)
	return r
}

// traceRun resolves the active run for this session's commands: the
// session override if set, else the runtime attachment. Two atomic loads;
// nil means tracing is off.
func (s *Session) traceRun() *trace.Run {
	if r := s.trc.Load(); r != nil {
		return r
	}
	return s.rt.trc.Load()
}

// evTrace is one issued command's trace record, allocated only when
// tracing is on: the hot enqueue path calls traceCmd, sees nil, and
// touches nothing else (TestTraceDisabledZeroAlloc pins the 0-alloc
// contract). The span tree is emitted when the command's profile arrives
// — in Event.resolve for pipelined commands, inline for blocking ones.
type evTrace struct {
	run       *trace.Run
	kind      trace.Kind
	tenant    string
	node      string
	device    string
	queue     uint64
	bytes     int64
	wireStart vtime.Time // host NIC egress occupancy of the request
	wireEnd   vtime.Time // == SimArrival; both zero when nothing crossed the NIC
	replay    bool
}

// traceCmd builds the trace record for one command about to be issued, or
// nil (with zero allocations) when tracing is off.
func (s *Session) traceCmd(kind trace.Kind, dev *DeviceRef, queue uint64, bytes int64, wireStart, wireEnd vtime.Time) *evTrace {
	run := s.traceRun()
	if run == nil {
		return nil
	}
	return &evTrace{
		run:       run,
		kind:      kind,
		tenant:    s.tenant,
		node:      dev.node.name,
		device:    dev.key.String(),
		queue:     queue,
		bytes:     bytes,
		wireStart: wireStart,
		wireEnd:   wireEnd,
		replay:    s.replaying.Load(),
	}
}

// emit records the command's span tree from its completed profile: a root
// span covering the command end to end, with wire, registration
// (dependency wait), device queue wait and exec children. Safe on a nil
// record.
func (t *evTrace) emit(eventID uint64, p protocol.Profile) {
	t.emitIn(eventID, p, 0)
}

// emitIn is emit plus the host-ingress arrival of a response payload
// (blocking reads); hostArrival > 0 adds a wire-in
// child and extends the root to it.
func (t *evTrace) emitIn(eventID uint64, p protocol.Profile, hostArrival vtime.Time) {
	if t == nil {
		return
	}
	queued, submit := vtime.Time(p.Queued), vtime.Time(p.Submit)
	start, end := vtime.Time(p.Start), vtime.Time(p.End)
	// Cut-through forwarding pushes may depart (Submit) before their
	// control frame's booked arrival (Queued); clamp the phase starts so
	// every emitted span is non-negative and the tree stays monotone.
	regStart := queued
	if submit < regStart {
		regStart = submit
	}
	qwStart := submit
	if start < qwStart {
		qwStart = start
	}
	base := trace.Span{
		Tenant:  t.tenant,
		Node:    t.node,
		Device:  t.device,
		Queue:   t.queue,
		EventID: eventID,
		Replay:  t.replay,
	}
	// Device-side commands (copies) never crossed the NIC: no wire child,
	// and the root starts at registration.
	hasWire := t.wireStart != 0 || t.wireEnd != 0

	root := base
	root.Kind = t.kind
	root.Start = regStart
	if hasWire && t.wireStart < root.Start {
		root.Start = t.wireStart
	}
	root.End = end
	if hostArrival > root.End {
		root.End = hostArrival
	}
	root.Bytes = t.bytes
	t.run.Add(root)

	if hasWire {
		wire := base
		wire.Kind, wire.Start, wire.End, wire.Bytes = trace.KindWire, t.wireStart, t.wireEnd, t.bytes
		t.run.Add(wire)
	}
	reg := base
	reg.Kind, reg.Start, reg.End = trace.KindRegister, regStart, submit
	t.run.Add(reg)
	qw := base
	qw.Kind, qw.Start, qw.End = trace.KindQueueWait, qwStart, start
	t.run.Add(qw)
	exec := base
	exec.Kind, exec.Start, exec.End = trace.KindExec, start, end
	t.run.Add(exec)
	if hostArrival > 0 {
		in := base
		in.Kind, in.Start, in.End, in.Bytes = trace.KindWireIn, end, hostArrival, t.bytes
		t.run.Add(in)
	}
}

// WriteMetrics writes a Prometheus-text (exposition format 0.0.4)
// snapshot of the runtime: the aggregate and per-tenant command counters,
// wire-byte splits, virtual-time totals, recovery counters, command-log
// size gauges, per-device monitor gauges, and — when a tracer is attached
// — per-(kind, tenant) span latency histograms. Output is deterministic
// for a given state: every series set is emitted in sorted order.
func (rt *Runtime) WriteMetrics(w io.Writer) error {
	mw := trace.NewMetricsWriter(w)

	rt.mu.Lock()
	agg := rt.metrics
	aggBusy := make(map[profile.DeviceKey]vtime.Duration, len(agg.ComputeBusy))
	for k, v := range agg.ComputeBusy {
		aggBusy[k] = v
	}
	rt.mu.Unlock()

	type tenantRow struct {
		name string
		m    Metrics
	}
	byTenant := map[string]*tenantRow{}
	var tenants []string
	for _, s := range rt.allSessions() {
		s.mu.Lock()
		m := s.metrics
		s.mu.Unlock()
		m.LogEntries, m.LogBytes = s.log.stats()
		agg.LogEntries += m.LogEntries
		agg.LogBytes += m.LogBytes
		row := byTenant[s.tenant]
		if row == nil {
			row = &tenantRow{name: s.tenant}
			byTenant[s.tenant] = row
			tenants = append(tenants, s.tenant)
		}
		row.m.Commands += m.Commands
		row.m.WireBytes += m.WireBytes
		row.m.HostWireBytes += m.HostWireBytes
		row.m.PeerWireBytes += m.PeerWireBytes
		row.m.Recoveries += m.Recoveries
		row.m.ReplayedCommands += m.ReplayedCommands
		row.m.LogEntries += m.LogEntries
		row.m.LogBytes += m.LogBytes
		row.m.DataCreate += m.DataCreate
		row.m.Transfer += m.Transfer
		if m.Makespan > row.m.Makespan {
			row.m.Makespan = m.Makespan
		}
	}
	sort.Strings(tenants)

	ints := func(typ, name, help string, aggV int64, perTenant func(Metrics) int64) {
		mw.Header(name, help, typ)
		mw.Int(name, nil, aggV)
		for _, t := range tenants {
			mw.Int(name, []trace.Label{{Key: "tenant", Val: t}}, perTenant(byTenant[t].m))
		}
	}
	ints("counter", "haocl_commands_total", "Protocol round trips issued.",
		agg.Commands, func(m Metrics) int64 { return m.Commands })
	mw.Header("haocl_wire_bytes_total", "Modeled wire traffic by path (host NIC vs node-to-node links).", "counter")
	mw.Int("haocl_wire_bytes_total", []trace.Label{{Key: "path", Val: "host"}}, agg.HostWireBytes)
	mw.Int("haocl_wire_bytes_total", []trace.Label{{Key: "path", Val: "peer"}}, agg.PeerWireBytes)
	for _, t := range tenants {
		m := byTenant[t].m
		mw.Int("haocl_wire_bytes_total", []trace.Label{{Key: "path", Val: "host"}, {Key: "tenant", Val: t}}, m.HostWireBytes)
		mw.Int("haocl_wire_bytes_total", []trace.Label{{Key: "path", Val: "peer"}, {Key: "tenant", Val: t}}, m.PeerWireBytes)
	}
	ints("counter", "haocl_recoveries_total", "Node-loss recoveries absorbed.",
		agg.Recoveries, func(m Metrics) int64 { return m.Recoveries })
	ints("counter", "haocl_replayed_commands_total", "Command-log entries re-issued by recovery.",
		agg.ReplayedCommands, func(m Metrics) int64 { return m.ReplayedCommands })
	ints("gauge", "haocl_log_entries", "Command-log entries a recovery would replay now.",
		agg.LogEntries, func(m Metrics) int64 { return m.LogEntries })
	ints("gauge", "haocl_log_bytes", "Payload bytes held by the command log.",
		agg.LogBytes, func(m Metrics) int64 { return m.LogBytes })

	gauge := func(name, help string, aggV float64, perTenant func(Metrics) float64) {
		mw.Header(name, help, "gauge")
		mw.Sample(name, nil, aggV)
		for _, t := range tenants {
			mw.Sample(name, []trace.Label{{Key: "tenant", Val: t}}, perTenant(byTenant[t].m))
		}
	}
	gauge("haocl_transfer_virtual_seconds", "Host NIC occupancy in virtual seconds.",
		agg.Transfer.Seconds(), func(m Metrics) float64 { return m.Transfer.Seconds() })
	gauge("haocl_data_create_virtual_seconds", "Host-side input materialization in virtual seconds.",
		agg.DataCreate.Seconds(), func(m Metrics) float64 { return m.DataCreate.Seconds() })
	gauge("haocl_makespan_virtual_seconds", "Latest virtual completion instant observed.",
		agg.Makespan.Seconds(), func(m Metrics) float64 { return m.Makespan.Seconds() })

	mw.Header("haocl_compute_busy_virtual_seconds", "Per-device kernel busy time in virtual seconds.", "gauge")
	busyKeys := make([]profile.DeviceKey, 0, len(aggBusy))
	for k := range aggBusy {
		busyKeys = append(busyKeys, k)
	}
	sort.Slice(busyKeys, func(i, j int) bool {
		if busyKeys[i].Node != busyKeys[j].Node {
			return busyKeys[i].Node < busyKeys[j].Node
		}
		return busyKeys[i].DeviceID < busyKeys[j].DeviceID
	})
	for _, k := range busyKeys {
		mw.Sample("haocl_compute_busy_virtual_seconds",
			[]trace.Label{{Key: "device", Val: k.String()}}, aggBusy[k].Seconds())
	}

	views := rt.monitor.Snapshot()
	deviceGauge := func(name, help string, value func(profile.DeviceView) float64) {
		mw.Header(name, help, "gauge")
		for _, v := range views {
			mw.Sample(name, []trace.Label{{Key: "device", Val: v.Key.String()}}, value(v))
		}
	}
	deviceGauge("haocl_device_busy_until_virtual_seconds", "Reported device busy frontier.",
		func(v profile.DeviceView) float64 { return float64(v.Status.BusyUntil) / 1e9 })
	deviceGauge("haocl_device_pending_virtual_seconds", "Host-assigned work the node has not yet reported.",
		func(v profile.DeviceView) float64 { return v.Pending.Seconds() })
	deviceGauge("haocl_device_expected_free_virtual_seconds", "Estimated drain instant (busy frontier plus pending).",
		func(v profile.DeviceView) float64 { return v.ExpectedFree().Seconds() })
	deviceGauge("haocl_device_queued_commands", "Commands queued node-side.",
		func(v profile.DeviceView) float64 { return float64(v.Status.QueuedCmds) })
	deviceGauge("haocl_device_kernels_total", "Kernels executed.",
		func(v profile.DeviceView) float64 { return float64(v.Status.KernelsRun) })
	deviceGauge("haocl_device_energy_joules", "Modeled energy consumed.",
		func(v profile.DeviceView) float64 { return v.Status.EnergyJ })

	if err := mw.Err(); err != nil {
		return err
	}
	return rt.trc.Load().Tracer().WriteMetrics(w)
}
