//go:build !race

package puno

import "testing"

// steadyStateAllocBound caps the heap allocations of one warm Arena.Run.
// What remains after warm-up is per-run construction that Reset does not
// pool (per-node programs and RNG forks, contention managers, TxLBs,
// predictors, the Result deep copy): 244–446 allocations on a 16-node run,
// independent of the events simulated. A per-event or per-transaction
// allocation adds tens of thousands.
const steadyStateAllocBound = 1000

// TestArenaRunSteadyStateAllocs is the allocation gate for warm runs: once
// an Arena has run a spec, running it again must not allocate per event or
// per transaction. It catches, among others, a trace call site whose
// arguments are boxed with tracing off. The race detector changes
// allocation counts, so the file is excluded from -race builds.
func TestArenaRunSteadyStateAllocs(t *testing.T) {
	for _, name := range []string{"kmeans", "intruder", "genome", "vacation", "yada"} {
		for _, scheme := range []Scheme{SchemePUNO, SchemeBaseline} {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			sp := RunSpec{Config: cfg, Workload: MustWorkload(name)}
			a := NewArena()
			// AllocsPerRun's first, unmeasured call builds and warms the
			// arena; the measured call is the warm run.
			allocs := testing.AllocsPerRun(1, func() {
				if _, err := a.Run(sp); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s/%v: %.0f allocs per warm run", name, scheme, allocs)
			if allocs > steadyStateAllocBound {
				t.Errorf("%s/%v: warm Arena.Run allocated %.0f times, want <= %d", name, scheme, allocs, steadyStateAllocBound)
			}
		}
	}
}
