package main

// workloads lists the five workloads in the order a pass interleaves them.
// The names, like the metric names, are what later issues cite.
var workloads = []workloadSpec{
	{
		name: "cmd-stream",
		why:  "pipelined 256 B writes and 8x8 kernels on 2 TCP nodes: per-command cost in core, codec, coalescer and node lanes is nearly all the work",
		warm: 3, rounds: 20, traced: 5, clients: 1,
		opUnit: "API command", jobUnit: "round of 15 002 commands, session open to close",
		newFn: func() workload { return &cmdStream{} },
	},
	{
		name: "bulk-xfer",
		why:  "16 MiB written in 1 MiB chunks, migrated node to node and read back on 2 TCP nodes: payload copies and allocations in core, Blob codec, frame I/O and node dominate",
		warm: 3, rounds: 20, traced: 5, clients: 1, unscaled: true,
		opUnit: "1 MiB chunk moved (the migration counts 16)", jobUnit: "round: 16 MiB written, migrated and read back",
		newFn: func() workload { return &bulkXfer{} },
	},
	{
		name: "serve-mt",
		why:  "2 tenants on 2 goroutines run blocking write-kernel-read jobs on one TCP node: round-trip latency and contention for shared locks and the one connection, not pipelined rate",
		warm: 3, rounds: 20, traced: 5, clients: serveTenants,
		opUnit: "API command (3 a job)", jobUnit: "tenant job: admit, write, kernel, blocking read",
		newFn: func() workload { return &serveMT{} },
	},
	{
		name: "crash-replay",
		why:  "3 mem-network nodes: a session logs 10 000 write+kernel pairs, a node is killed, recovery replays the log; the only workload where core recovery does the work",
		warm: 1, rounds: 5, traced: 5, clients: 1,
		opUnit: "API command of the build phases", jobUnit: "recovery at H = 10 000: kill until every buffer is read back and checked",
		newFn: func() workload { return &crashReplay{} },
	},
	{
		name: "paper-figs",
		why:  "Fig. 2, Fig. 3, overhead and hetero tables: 94 short-lived local clusters a round, so connect, build, kernel executor, policies and teardown do the work, streaming none",
		warm: 1, rounds: 6, traced: 5, clients: 1,
		opUnit: "figure cell (one cluster started, run and stopped)", jobUnit: "one call into the figure harness (1 to 12 cells)",
		newFn: func() workload { return &paperFigs{} },
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
