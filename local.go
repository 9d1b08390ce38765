package haocl

import (
	"fmt"

	"github.com/haocl-project/haocl/internal/cluster"
	"github.com/haocl-project/haocl/internal/cluster/inproc"
)

// LocalClusterSpec describes an in-process simulated cluster. Either give
// node counts (the paper's homogeneous-node layout: one device per node)
// or a full Config for arbitrary topologies.
type LocalClusterSpec struct {
	// UserID identifies the host user to the NMPs.
	UserID string

	// CPUNodes, GPUNodes and FPGANodes spin up that many single-device
	// nodes. Ignored when Config is set.
	CPUNodes  int
	GPUNodes  int
	FPGANodes int
	// Bitstreams lists the pre-built kernels for FPGA devices.
	Bitstreams []string

	// Config, when set, describes the topology explicitly.
	Config *ClusterConfig

	// Kernels is the kernel implementation registry shared by every
	// node. Required.
	Kernels *KernelRegistry

	// ExecWorkers caps functional execution parallelism per node (many
	// simulated nodes share one OS process; 1 keeps them fair).
	ExecWorkers int

	// Policy is the default scheduling policy.
	Policy Policy
}

// LocalCluster is a running in-process cluster: real Node Management
// Processes served over an in-memory backbone, plus a connected Platform.
type LocalCluster struct {
	// Platform is the connected host-side platform.
	Platform *Platform

	nodes *inproc.Nodes
}

// StartLocalCluster serves the nodes on an in-memory network and connects
// a Platform: everything a distributed deployment has but the sockets.
func StartLocalCluster(spec LocalClusterSpec) (*LocalCluster, error) {
	if spec.Kernels == nil {
		return nil, fmt.Errorf("haocl: LocalClusterSpec.Kernels is required")
	}
	var cfg *cluster.Config
	if spec.Config != nil {
		c := *spec.Config
		if c.UserID == "" {
			c.UserID = spec.UserID
		}
		cfg = &c
	} else {
		cfg = cluster.Synthetic(spec.UserID, spec.CPUNodes, spec.GPUNodes, spec.FPGANodes, spec.Bitstreams)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	nodes, err := inproc.Serve(cfg, spec.Kernels, inproc.Options{ExecWorkers: spec.ExecWorkers})
	if err != nil {
		return nil, err
	}
	lc := &LocalCluster{nodes: nodes}
	lc.Platform, err = Connect(nodes.Config,
		withDialer(nodes.Dialer),
		WithPolicy(spec.Policy),
		WithClientName("haocl-local"),
	)
	if err != nil {
		nodes.Close()
		return nil, err
	}
	return lc, nil
}

// Close disconnects the platform and stops every node server.
func (c *LocalCluster) Close() error {
	err := c.Platform.Close()
	c.nodes.Close()
	return err
}
