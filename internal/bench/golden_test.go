package bench

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	haocl "github.com/haocl-project/haocl"
)

// virtualGolden holds the text of every experiment in its full form,
// followed by the SHA-256 of the trace export of goldenTraced.
var virtualGolden = filepath.Join("testdata", "virtual.golden")

// goldenTraced are the experiments whose trace exports the golden pins.
// The text shows virtual seconds to three decimals, so a drift of a few
// nanoseconds shows only in the traces. Pipeline and serve are left out:
// their exports run to tens of megabytes.
var goldenTraced = map[string]bool{
	"overhead": true, "fig2": true, "hetero": true, "fig3": true, "chaos": true, "serve-trace": true,
}

// TestVirtualGolden is the one check of the paper's virtual results: it
// runs every experiment in its full form, through the list haocl-bench
// runs, and compares what they print, plus the trace hashes, byte for byte
// with testdata/virtual.golden. Each experiment also checks its own
// invariants (pipelining keeps virtual makespans, the chaos leg recovers
// to the healthy leg's contents, fair-share bounds the light tenants' p99,
// the fair rerun reproduces every latency) and fails the test by
// returning an error.
//
// The file is never edited by hand. A change that is meant to move a
// virtual result deletes it and runs this test once: the test then writes
// the file from the current code and fails, so that a run which
// regenerates never passes. Review the diff of the new file.
func TestVirtualGolden(t *testing.T) {
	var got bytes.Buffer
	var sums []string
	for _, e := range Experiments {
		var tracer *haocl.Tracer
		if goldenTraced[e.Name] {
			tracer = haocl.NewTracer()
		}
		SetTracer(tracer)
		err := e.Run(&got, false)
		SetTracer(nil)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		got.WriteString("\n")
		if tracer != nil {
			h := sha256.New()
			if err := tracer.WriteChrome(h); err != nil {
				t.Fatalf("%s: trace export: %v", e.Name, err)
			}
			sums = append(sums, fmt.Sprintf("trace %s sha256 %x\n", e.Name, h.Sum(nil)))
		}
	}
	got.WriteString(strings.Join(sums, ""))

	want, err := os.ReadFile(virtualGolden)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(virtualGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(virtualGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing and has been written from the current code; review and commit it", virtualGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("virtual results drifted from %s at line %d:\n got: %s\nwant: %s", virtualGolden, i+1, g, w)
		}
	}
}

// TestChaosRecoveryOverheadBounded: recovery is not free — each crash
// replays the command log onto the survivors — but the chaos leg's
// wall-clock command rate must stay at least a third of the healthy leg's.
func TestChaosRecoveryOverheadBounded(t *testing.T) {
	healthy, chaos, err := chaosLegs(false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("healthy leg %.0f cmds/s, chaos leg %.0f cmds/s", healthy.CmdsPerSec, chaos.CmdsPerSec)
	if chaos.CmdsPerSec < healthy.CmdsPerSec/3 {
		t.Fatalf("chaos leg ran %.0f cmds/s, below a third of the healthy leg's %.0f",
			chaos.CmdsPerSec, healthy.CmdsPerSec)
	}
}
