package bench

import (
	"strings"
	"testing"
)

// TestPipelineBeatsSyncMatmul is the acceptance gate for the async
// command-pipelining refactor: on the MatrixMul tile stream, issuing
// without per-command round trips must push more commands per second than
// the synchronous baseline, while virtual time stays identical (the
// pipeline changes host behavior, not the modeled hardware).
func TestPipelineBeatsSyncMatmul(t *testing.T) {
	// Loopback TCP is the deployment shape: socket buffering lets the
	// pipeline stream while the blocking baseline pays each round trip.
	const gpus, launches = 2, 150
	syncRow, err := PipelineMatmul(gpus, launches, ModeSync, true)
	if err != nil {
		t.Fatal(err)
	}
	pipeRow, err := PipelineMatmul(gpus, launches, ModePipelined, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sync: %v", syncRow)
	t.Logf("pipelined: %v", pipeRow)
	if pipeRow.CmdsPerSec <= syncRow.CmdsPerSec {
		t.Fatalf("pipelined rate %.0f cmds/s does not beat sync %.0f cmds/s",
			pipeRow.CmdsPerSec, syncRow.CmdsPerSec)
	}
	if syncRow.VirtualSec <= 0 || pipeRow.VirtualSec <= 0 {
		t.Fatalf("virtual makespan missing: sync=%v pipelined=%v",
			syncRow.VirtualSec, pipeRow.VirtualSec)
	}
}

// TestPipelineBFSChain checks the dependency-chain workload runs in both
// modes and reports sane numbers (the chain is fully serialized in virtual
// time, so only the wall-clock rate may differ).
func TestPipelineBFSChain(t *testing.T) {
	for _, mode := range []StreamMode{ModeSync, ModePipelined} {
		row, err := PipelineBFS(60, mode, false)
		if err != nil {
			t.Fatal(err)
		}
		if row.Commands != 61 || row.CmdsPerSec <= 0 {
			t.Fatalf("row = %v", row)
		}
	}
}

// TestPipelineReportPrints smoke-tests the printed experiment.
func TestPipelineReportPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in short mode")
	}
	var sb strings.Builder
	if err := Pipeline(&sb, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"MatrixMul", "BFS", "pipelined", "sync"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
