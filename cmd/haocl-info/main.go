// Command haocl-info is the clinfo of a HaoCL cluster: it connects to
// every node in a cluster configuration and lists the devices the unified
// platform exposes, with their model parameters and live status.
//
// Usage:
//
//	haocl-info -config cluster.json            # device inventory
//	haocl-info -config cluster.json -status    # live scheduler snapshot
//	haocl-info -config cluster.json -metrics   # Prometheus-text metrics
//
// -status renders the resource monitor's live view per device — the busy
// frontier the node last reported, the host-assigned work it has not yet
// acknowledged, and the estimated drain instant the scheduler's
// least-loaded placement uses. -metrics dumps the same state plus the
// runtime counters in Prometheus exposition format (DESIGN.md §10).
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	haocl "github.com/haocl-project/haocl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "haocl-info:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("haocl-info", flag.ContinueOnError)
	configPath := fs.String("config", "cluster.json", "cluster configuration file")
	status := fs.Bool("status", false, "print the live per-device scheduler snapshot instead of the inventory")
	metrics := fs.Bool("metrics", false, "print a Prometheus-text metrics snapshot instead of the inventory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := haocl.LoadClusterConfig(*configPath)
	if err != nil {
		return err
	}
	p, err := haocl.Connect(cfg, haocl.WithClientName("haocl-info"))
	if err != nil {
		return err
	}
	defer p.Close()
	if err := p.PollStatus(); err != nil {
		return err
	}

	switch {
	case *metrics:
		return p.WriteMetrics(os.Stdout)
	case *status:
		return printStatus(p)
	}

	devices := p.Devices(haocl.AnyDevice)
	fmt.Printf("HaoCL platform: %d node(s), %d device(s)\n\n", len(cfg.Nodes), len(devices))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "DEVICE\tTYPE\tNAME\tCUs\tCLOCK\tMEM\tPEAK\tBW\tTDP\tSHARED")
	for _, d := range devices {
		info := d.Info()
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%dMHz\t%dGiB\t%.0fGF\t%.0fGB/s\t%.0fW\t%v\n",
			d.Key(), info.Type, info.Name, info.ComputeUnits, info.ClockMHz,
			info.GlobalMemBytes>>30, info.PeakGFLOPS, info.MemBWGBps,
			info.TDPWatts, info.Shared)
	}
	return tw.Flush()
}

// printStatus renders the resource monitor's live view: what the scheduler
// sees when it ranks devices (least-loaded placement keys on EXPECTED-FREE,
// the busy frontier plus unacknowledged pending work).
func printStatus(p *haocl.Platform) error {
	views := p.Status()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "DEVICE\tBUSY-UNTIL\tPENDING\tEXPECTED-FREE\tQUEUED\tKERNELS\tENERGY")
	for _, v := range views {
		fmt.Fprintf(tw, "%s\t%.3fs\t%.3fs\t%.3fs\t%d\t%d\t%.1fJ\n",
			v.Key.String(),
			float64(v.Status.BusyUntil)/1e9,
			v.Pending.Seconds(),
			v.ExpectedFree().Seconds(),
			v.Status.QueuedCmds,
			v.Status.KernelsRun,
			v.Status.EnergyJ)
	}
	return tw.Flush()
}
