package puno

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestGoldenTextTrace pins the Config.TraceFn stream of two small 4-node
// PUNO runs byte-for-byte in testdata/trace_golden.txt: every trace site,
// its arguments, and the order the sites fire in. kmeans is the quiet
// case; intruder contends enough to exercise the abort site as well. Each
// site guards its own argument construction behind the TraceFn nil check,
// so a guard that drops a line or reorders one shows up here as a diff.
func TestGoldenTextTrace(t *testing.T) {
	var b strings.Builder
	for _, wl := range []string{"kmeans", "intruder"} {
		cfg := DefaultConfig()
		cfg.Mesh.Width, cfg.Mesh.Height = 2, 2
		cfg.Nodes = 4
		cfg.Scheme = SchemePUNO
		cfg.TraceFn = func(cy sim.Time, node int, ev string) {
			fmt.Fprintf(&b, "%10d n%02d %s\n", cy, node, ev)
		}
		fmt.Fprintf(&b, "# %s\n", wl)
		if _, err := Run(cfg, MustWorkload(wl).WithTxPerCPU(2)); err != nil {
			t.Fatal(err)
		}
	}
	compareGolden(t, "trace_golden.txt", b.String())
}
