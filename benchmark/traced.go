package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// measureTraced is the outside-in traced run of one workload: a traced
// pass between two untraced reference passes of the same fixed length,
// each on a fresh cluster. The traced pass gives the per-layer times and
// counts; the reference passes give what tracing must not disturb (phase
// rates, the latency tail, retained heap) and, by the difference, the
// tracing overhead: one before and one after, because a process's first
// pass runs on a cold heap. End-to-end metrics never come from here.
func measureTraced(spec workloadSpec, seed int64, traceOut string) (runResult, error) {
	before, err := runPass(spec, &env{seed: seed}, spec.traced)
	if err != nil {
		return runResult{}, err
	}
	tr := newTracer()
	tp, err := runPass(spec, &env{seed: seed, tr: tr}, spec.traced)
	if err != nil {
		return runResult{}, err
	}
	after, err := runPass(spec, &env{seed: seed}, spec.traced)
	if err != nil {
		return runResult{}, err
	}
	passes := []passResult{before, tp, after}
	res := newRunResult(spec, passes, spec.traced)
	res.Metrics = tracedMetrics(spec, []passResult{before, after}, tp, tr)
	res.check(seed, passes)
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return res, err
		}
		if err := tr.writeChrome(f); err != nil {
			f.Close()
			return res, fmt.Errorf("write %s: %w", traceOut, err)
		}
		if err := f.Close(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// extras collects one of the workload's own per-round values over a pass.
func extras(p passResult, name string) []float64 {
	var out []float64
	for _, r := range p.rounds {
		if v, ok := r.extra[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// rates are a pass's per-round operation rates, in reference seconds.
func rates(p passResult) []float64 {
	var out []float64
	for _, r := range p.rounds {
		out = append(out, float64(r.ops)/(r.window().Seconds()*p.speed))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedMetrics turns the two passes and the recorded spans into the
// traced per-layer metrics. A metric that does not apply to a workload
// (replay on cmd-stream, connection counts on the mem network) is 0 there.
// Times are in reference seconds, each pass's scaled by its own factor.
func tracedMetrics(spec workloadSpec, refs []passResult, tp passResult, tr *tracer) metrics {
	m := metrics{}
	tot := tr.totals()
	sec := func(k spanKind) float64 { return tot[k].dur.Seconds() * tp.speed }
	var ops, wall float64
	for _, r := range tp.rounds {
		ops += float64(r.ops)
		wall += r.wall.Seconds() * tp.speed
	}

	// host net.Conn
	writes, reads := float64(tr.connWrites.Load()), float64(tr.connReads.Load())
	m.set("transport.conn_writes", "count", writes)
	m.set("transport.conn_write_bytes", "B", float64(tr.connWriteBytes.Load()))
	m.set("transport.cmds_per_write", "1", ratio(ops, writes))
	m.set("transport.wire_b_per_op", "B", ratio(float64(tr.connWriteBytes.Load()+tr.connReadBytes.Load()), ops))
	m.set("transport.conn_write_s", "s", sec(spConnWrite))
	m.set("transport.conn_reads", "count", reads)

	// node handler; self time is the handler's busy time minus the part
	// its child, the device, covers
	nodeOps := float64(tr.nodeOps.Load())
	busy, exec := tr.busy(spHandle).Seconds()*tp.speed, tr.busy(spExec).Seconds()*tp.speed
	m.set("node.ops", "count", nodeOps)
	m.set("node.errors", "count", float64(tr.nodeErrors.Load()))
	m.set("node.register_us_per_op", "us", ratio(sec(spRegister)*1e6, nodeOps))
	m.set("node.handle_us_per_op", "us", ratio(sec(spHandle)*1e6, nodeOps))
	m.set("node.handle_busy_s", "s", busy)
	m.set("node.self_s", "s", busy-exec)
	m.set("kernel.exec_s", "s", sec(spExec))
	m.set("kernel.launches", "count", float64(tot[spExec].n))

	// public API
	api := sec(spEnqueue) + sec(spWait) + sec(spApp) + sec(spAdmission) + sec(spRecover)
	m.set("haocl.enqueue_s", "s", sec(spEnqueue))
	m.set("haocl.enqueue_us_per_op", "us", ratio(sec(spEnqueue)*1e6, ops))
	m.set("haocl.wait_s", "s", sec(spWait))
	m.set("haocl.app_s", "s", sec(spApp))
	m.set("haocl.api_share_of_wall", "1", ratio(api, wall*float64(spec.clients)))
	m.set("sched.admission_wait_s", "s", sec(spAdmission))

	// recovery: counts from the traced pass, times from the reference pass
	m.set("core.recover_s", "s", sec(spRecover))
	m.set("core.replayed_cmds", "count", sum(extras(tp, "replayed_big"))+sum(extras(tp, "replayed_small")))
	var perCmd, jobs, refRates []float64
	phases := map[string][]float64{}
	for _, ref := range refs {
		refRates = append(refRates, median(rates(ref)))
		for _, r := range ref.rounds {
			if cmds := r.extra["replayed_big"] - r.extra["replayed_small"]; cmds > 0 {
				perCmd = append(perCmd, (r.extra["recover_big_s"]-r.extra["recover_small_s"])*ref.speed*1e6/cmds)
			}
			for _, phase := range []string{"write", "migrate", "read"} {
				if s, ok := r.extra[phase+"_s"]; ok {
					phases[phase] = append(phases[phase], bulkChunks/(s*ref.speed))
				}
			}
			for _, j := range r.jobs {
				jobs = append(jobs, float64(j.Nanoseconds())/1e3*ref.speed)
			}
		}
	}
	m.set("core.replay_us_per_cmd", "us", median(perCmd))
	for _, phase := range []string{"write", "migrate", "read"} {
		m.set("haocl."+phase+"_mb_per_s", "MB/s", median(phases[phase]))
	}
	sort.Float64s(jobs)
	m.set("haocl.job_p998_us", "us", quantile(jobs, 0.998))

	// from the first reference pass: what is the same in every pass
	ref := refs[0]
	var written float64
	if w := extras(ref, "written_b"); len(w) > 0 {
		written = w[0] * float64(spec.warm+len(ref.rounds)+1)
	}
	m.set("core.log_b_per_write_b", "B/B", ratio((ref.heapPeak-ref.heapSetup)*1e6, written))
	var virtual time.Duration
	for _, r := range ref.rounds {
		virtual += r.virtual
	}
	m.set("haocl.virtual_s", "s", virtual.Seconds())

	m.set("trace.overhead_frac", "1", 1-ratio(median(rates(tp)), sum(refRates)/float64(len(refRates))))
	m.set("trace.spans", "count", float64(len(tr.recorded())))
	m.set("trace.dropped_spans", "count", float64(tr.dropped()))

	m.set("process.gc_cycles", "count", float64(tp.gcCycles))
	m.set("process.gc_pause_ms", "ms", float64(tp.gcPauseNS)/1e6*tp.speed)
	m.set("process.speed", "1", tp.speed)
	m.set("process.heap_setup_mb", "MB", ref.heapSetup)
	m.set("process.peak_rss_mb", "MB", peakRSSMB())
	return m
}
