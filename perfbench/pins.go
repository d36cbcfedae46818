package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	_ "embed"

	puno "repro"
)

// pinned.json holds the SHA-256 of every punores/1 reference artifact,
// per workload, keyed by pinKey: every batch spec (their simulated inputs
// do not follow --seed) and serve-mix's hot set at the default seed. A change that only speeds
// the simulator up leaves every one of them unchanged; `run.sh --pin`
// recomputes the file after a change that means to alter results.
//
//go:embed pinned.json
var pinnedJSON []byte

type pinSet map[string]map[string]string

func pinKey(sp puno.RunSpec) string {
	return fmt.Sprintf("%s@%d", specLabel(sp), sp.Config.Seed)
}

// checkPins compares reference artifacts with the pinned digests and
// returns the number that differ or are missing.
func checkPins(workload string, specs []puno.RunSpec, refs []refRun) int {
	var pins pinSet
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		logf("pinned.json: %v", err)
		return len(specs)
	}
	bad := 0
	for i, sp := range specs {
		want, ok := pins[workload][pinKey(sp)]
		if got := refs[i].digest(); !ok || got != want {
			bad++
			logf("pin mismatch: %s %s: got %s, pinned %q", workload, pinKey(sp), got, want)
		}
	}
	return bad
}

// writePins recomputes pinned.json for the default seed.
func writePins(path string) error {
	pins := pinSet{}
	for _, w := range []*simWorkload{paperHC(), paperLC(), mesh256()} {
		specs := w.specs(experimentsSeed)
		refs, err := referenceAll(specs, runtime.NumCPU(), nil)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		pins[w.name] = digests(specs, refs)
	}
	specs, refs, err := servePinned(defaultSeed)
	if err != nil {
		return fmt.Errorf("serve-mix: %w", err)
	}
	pins["serve-mix"] = digests(specs, refs)
	b, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func digests(specs []puno.RunSpec, refs []refRun) map[string]string {
	m := map[string]string{}
	for i, sp := range specs {
		m[pinKey(sp)] = refs[i].digest()
	}
	return m
}
