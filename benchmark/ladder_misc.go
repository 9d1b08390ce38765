package main

import (
	"fmt"
	"io"
	"time"

	"github.com/haocl-project/haocl/internal/apps/bfs"
	"github.com/haocl-project/haocl/internal/apps/cfd"
	"github.com/haocl-project/haocl/internal/apps/knn"
	"github.com/haocl-project/haocl/internal/apps/matmul"
	"github.com/haocl-project/haocl/internal/apps/spmv"
	"github.com/haocl-project/haocl/internal/clc"
	"github.com/haocl-project/haocl/internal/kernel"
	"github.com/haocl-project/haocl/internal/mem"
	"github.com/haocl-project/haocl/internal/profile"
	"github.com/haocl-project/haocl/internal/protocol"
	"github.com/haocl-project/haocl/internal/sched"
	"github.com/haocl-project/haocl/internal/trace"
	"github.com/haocl-project/haocl/internal/vtime"
)

func schedRungs(l *ladder) error {
	// Eight tenants with a standing backlog of 1024: every grant is paid
	// for with a fresh submission, so the queue stays that deep.
	const tenants, backlog = 8, 1024
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", i)
	}
	fq := sched.NewFairQueue(time.Millisecond)
	for i := 0; i < backlog; i++ {
		fq.Submit(sched.FairItem{Tenant: names[i%tenants], Cost: time.Duration(1+i%3) * time.Millisecond})
	}
	c := l.rung(20000, func() {
		for i := 0; i < 20000; i++ {
			item, ok := fq.Next()
			if !ok {
				panic("ladder: fair queue ran dry under a standing backlog")
			}
			fq.Done(item.Tenant)
			fq.Submit(item)
		}
	})
	l.m.set("sched.fairqueue_ns_per_grant", "ns", c.ns)
	l.m.set("sched.fairqueue_allocs_per_grant", "1", c.allocs)

	adm := sched.NewAdmission(sched.NewFairQueue(time.Millisecond), 2)
	l.m.set("sched.admission_ns", "ns", l.rung(20000, func() {
		for i := 0; i < 20000; i++ {
			adm.Acquire("tenant-0", time.Millisecond)
			adm.Release("tenant-0")
		}
	}).ns)

	// The paper's largest cluster: 16 GPU and 4 FPGA devices in view.
	view := make([]profile.DeviceView, 20)
	for i := range view {
		info := protocol.DeviceInfo{ID: 1, Type: protocol.DeviceGPU, PeakGFLOPS: 5500, MemBWGBps: 192, TDPWatts: 75}
		if i >= 16 {
			info = protocol.DeviceInfo{ID: 1, Type: protocol.DeviceFPGA, PeakGFLOPS: 1800, MemBWGBps: 77, TDPWatts: 45}
		}
		view[i] = profile.DeviceView{
			Key:    profile.DeviceKey{Node: fmt.Sprintf("node-%02d", i), DeviceID: 1},
			Info:   info,
			Status: protocol.DeviceStatus{DeviceID: 1, BusyUntil: int64(i) * 1e6},
		}
	}
	task := sched.Task{Kernel: "matmul", Cost: kernel.Cost{Flops: 2e9, Bytes: 8e9}, InputBytes: 8 << 20}
	var assignErr error
	l.m.set("sched.policy_assign_ns", "ns", l.rung(20000, func() {
		for i := 0; i < 20000; i++ {
			if _, err := (sched.HeteroAware{}).Assign(task, view); err != nil {
				assignErr = err
			}
		}
	}).ns)
	if assignErr != nil {
		return fmt.Errorf("ladder: sched: %w", assignErr)
	}
	return nil
}

func memRungs(l *ladder) error {
	// 64 fragments of 64 bytes, 64 bytes apart: a replica after many
	// partial writes.
	const frags, step = 64, 128
	var base mem.RangeSet
	for i := int64(0); i < frags; i++ {
		base.Add(i*step, i*step+step/2)
	}
	// Add copies the span list, so a copied set leaves base untouched.
	l.m.set("mem.rangeset_add_ns", "ns", l.rung(20000, func() {
		for i := int64(0); i < 20000; i++ {
			s := base
			f := i % (frags - 1)
			s.Add(f*step+step/2, (f+1)*step) // closes one gap, merging two fragments
		}
	}).ns)
	var gaps int
	l.m.set("mem.rangeset_gaps_ns", "ns", l.rung(20000, func() {
		for i := 0; i < 20000; i++ {
			gaps += len(base.Gaps(0, frags*step))
		}
	}).ns)
	if gaps == 0 {
		return fmt.Errorf("ladder: mem: a fragmented set reported no gaps")
	}
	return nil
}

func kernelRungs(l *ladder) error {
	var runErr error
	const items = 4096
	incr := &kernel.Spec{Name: "ladder", Func: func(it *kernel.Item, args []kernel.Arg) {
		args[0].Float32s()[it.GlobalID(0)]++
	}}
	launch := kernel.Launch{Global: []int{items}, Local: []int{64}, Args: []kernel.Arg{kernel.BufferArg(make([]byte, 4*items))}, Workers: 1}
	c := l.rung(100*items, func() {
		for i := 0; i < 100; i++ {
			if err := kernel.Run(incr, launch); err != nil {
				runErr = err
			}
		}
	})
	l.m.set("kernel.ndrange_ns_per_item", "ns", c.ns)
	l.m.set("kernel.ndrange_allocs_per_launch", "1", c.allocs*items)

	const barrierItems = 256
	barrier := &kernel.Spec{Name: "ladder-barrier", UsesBarrier: true, Func: func(it *kernel.Item, args []kernel.Arg) {
		scratch := args[1].Float32s()
		scratch[it.LocalID(0)] = 1
		it.Barrier()
		if it.LocalID(0) == 0 {
			args[0].Float32s()[it.GroupID(0)] = scratch[0]
		}
	}}
	barrierLaunch := kernel.Launch{
		Global: []int{barrierItems}, Local: []int{32}, Workers: 1,
		Args: []kernel.Arg{kernel.BufferArg(make([]byte, 4*barrierItems)), kernel.LocalArg(4 * 32)},
	}
	l.m.set("kernel.barrier_ns_per_item", "ns", l.rung(100*barrierItems, func() {
		for i := 0; i < 100; i++ {
			if err := kernel.Run(barrier, barrierLaunch); err != nil {
				runErr = err
			}
		}
	}).ns)

	// The five applications' programs, as Build parses them.
	sources := []string{matmul.Source, cfd.Source, knn.Source, bfs.Source, spmv.Source}
	var kb float64
	for _, s := range sources {
		kb += float64(len(s)) / 1024
	}
	c = l.rung(200, func() {
		for i := 0; i < 200; i++ {
			for _, s := range sources {
				if _, err := clc.Parse(s); err != nil {
					runErr = err
				}
			}
		}
	})
	l.m.set("clc.parse_us_per_kb", "us", c.ns/1e3/kb)
	l.m.set("clc.parse_allocs", "1", c.allocs/float64(len(sources)))
	if runErr != nil {
		return fmt.Errorf("ladder: kernel: %w", runErr)
	}
	return nil
}

func traceRungs(l *ladder) error {
	// Exporting what the program's own (virtual-time) tracer recorded.
	const spans = 10000
	t := trace.New()
	run := t.NewRun("ladder")
	for i := 0; i < spans; i++ {
		kind := trace.KindWrite
		if i%3 == 2 {
			kind = trace.KindKernel
		}
		run.Add(trace.Span{
			Kind: kind, Tenant: "ladder", Node: fmt.Sprintf("gpu-%02d", i%2), Device: "gpu-00/dev1",
			Queue: 1, EventID: uint64(i + 1), Start: vtime.Time(i * 1000), End: vtime.Time(i*1000 + 900), Bytes: 256,
		})
	}
	var exportErr error
	l.m.set("trace.export_ns_per_span", "ns", l.rung(spans, func() {
		if err := t.WriteChrome(io.Discard); err != nil {
			exportErr = err
		}
	}).ns)
	if exportErr != nil {
		return fmt.Errorf("ladder: trace: %w", exportErr)
	}
	return nil
}
