package pdes

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/probe"
)

// TestShardedEventStreamMatchesSerial runs the coordinator with an event
// sink installed, which switches every shard to the emission-tracking
// window loop, and requires the merged event stream to equal the serial
// run's event for event. LineIDs are compared through each run's line
// table: shards intern lines in a different order than a serial run.
// (The root package's determinism suite certifies the saved trace bytes.)
func TestShardedEventStreamMatchesSerial(t *testing.T) {
	wl := testWL(t, "intruder", 4)
	cfg := machine.DefaultConfig()
	cfg.Scheme = machine.SchemePUNO
	cfg.Seed = 42

	var want probe.Buffer
	cfg.EventSink = &want
	m, err := machine.New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("serial: %v", err)
	}
	wantLines := m.LineTable()

	for _, shards := range []int{2, 4} {
		var got probe.Buffer
		scfg := cfg
		scfg.Shards = shards
		scfg.EventSink = &got
		co, err := New(scfg, wl)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if _, err := co.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		gotLines := co.LineTable()
		line := func(table []mem.Line, id mem.LineID) mem.Line {
			if id == 0 {
				return 0
			}
			return table[id-1]
		}

		a, b := want.Events(), got.Events()
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("shards=%d: %d events, serial %d", shards, len(b), len(a))
		}
		for i := range a {
			ea, eb := a[i], b[i]
			la, lb := line(wantLines, ea.Line), line(gotLines, eb.Line)
			ea.Line, eb.Line = 0, 0
			if ea != eb || la != lb {
				t.Fatalf("shards=%d: event %d is %+v (line %v), serial %+v (line %v)",
					shards, i, eb, lb, ea, la)
			}
		}
	}
}
