package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSelfTimesSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	selfTimes(spans)
	want := map[string]int64{"root": 100 - 40 - 10, "a": 20, "b": 30 - 10, "c": 30, "d": 10}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", 0, 0, func() { ran = true })
	if !ran || tr.snapshot() != nil {
		t.Fatal("nil tracer must run the call and record nothing")
	}
	tr = newTracer()
	id, end := tr.begin("outer", 0, 7)
	tr.do("inner", id, 7, func() { time.Sleep(time.Millisecond) })
	end()
	got := summarize(tr.snapshot())
	if len(got) != 2 || got[0].Calls != 1 {
		t.Fatalf("summary %+v", got)
	}
	for _, s := range got {
		if s.Name == "outer" && s.SelfMs >= s.TotalMs {
			t.Errorf("outer self %.3f ms should exclude inner (total %.3f ms)", s.SelfMs, s.TotalMs)
		}
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"repro/internal/runner.MapWorkers[go.shape.*repro/internal/x.T,go.shape.*uint8].func1"}, "runner"},
		{[]string{"repro.(*Arena).Run"}, "puno"},
		{[]string{"repro/perfbench.runPass"}, "bench"},
		{[]string{"runtime.mallocgc", "repro/internal/machine.(*firstLoadTable).grow"}, "runtime"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey"}, "runtime"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall"}, "syscall"},
		{[]string{"vendor/golang.org/x/net/http/httpguts.ValidHeaderFieldName"}, "std"},
		{[]string{"net/http.(*conn).serve"}, "std"},
		{nil, "unknown"},
	}
	for _, c := range cases {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// Minimal profile.proto encoder for the parser tests.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) packed(field int, vs ...uint64) *pb {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return p.bytes(field, inner)
}

func TestParseProfileAttributesInlinedLeaf(t *testing.T) {
	strs := []string{"", "repro/internal/noc.(*Mesh).route", "repro/internal/machine.(*Machine).send",
		"runtime.goexit", "task", "3"}
	prof := &pb{}
	for i, name := range []int{1, 2, 3} {
		prof.bytes(5, (&pb{}).varint(1, uint64(i+1)).varint(2, uint64(name)).b)
	}
	// Location 1: noc route inlined into machine send (innermost first).
	prof.bytes(4, (&pb{}).varint(1, 1).
		bytes(4, (&pb{}).varint(1, 1).b).
		bytes(4, (&pb{}).varint(1, 2).b).b)
	prof.bytes(4, (&pb{}).varint(1, 2).bytes(4, (&pb{}).varint(1, 3).b).b)
	// Sample A: 30ms with a label, packed fields. Sample B: 10ms in
	// machine, with unpacked single-value fields.
	prof.bytes(2, (&pb{}).packed(1, 1, 2).packed(2, 3, 30e6).
		bytes(3, (&pb{}).varint(1, 4).varint(2, 5).b).b)
	prof.bytes(2, (&pb{}).varint(1, 2).varint(2, 10e6).b)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || len(samples[0].stack) != 3 || samples[0].stack[0] != strs[1] {
		t.Fatalf("samples %+v", samples)
	}
	shares, total := moduleShares(samples)
	if total != 40e6 || shares["noc"] != 75 || shares["std"] != 0 {
		t.Fatalf("shares %v total %d", shares, total)
	}
	// runtime.goexit at the leaf of sample B.
	if shares["runtime"] != 25 {
		t.Fatalf("runtime share %v", shares["runtime"])
	}
	if n := labeledNanos(samples, "task"); n != 30e6 {
		t.Fatalf("labelled %d", n)
	}
}

func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	var sink atomic.Uint64
	pprof.Do(context.Background(), pprof.Labels("task", "1"), func(context.Context) {
		deadline := time.Now().Add(300 * time.Millisecond)
		x := uint64(1)
		for time.Now().Before(deadline) {
			for i := 0; i < 1000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
		}
		sink.Store(x)
	})
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, total := moduleShares(samples)
	if total == 0 {
		t.Skip("no samples taken")
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 || shares["bench"] == 0 || labeledNanos(samples, "task") == 0 {
		t.Fatalf("shares %v (sum %v), labelled %d", shares, sum, labeledNanos(samples, "task"))
	}
}

// fakeClock advances only when slept on, and every sleep overshoots by
// late.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	late time.Duration
}

func (f *fakeClock) clock() clock {
	return clock{
		now: func() time.Time { f.mu.Lock(); defer f.mu.Unlock(); return f.t },
		sleep: func(d time.Duration) {
			f.mu.Lock()
			f.t = f.t.Add(d + f.late)
			f.mu.Unlock()
		},
	}
}

func TestDueTimesAreEvenlySpaced(t *testing.T) {
	start := time.Unix(100, 0)
	due := dueTimes(start, 250, 5)
	for i, d := range due {
		if want := start.Add(time.Duration(i) * 4 * time.Millisecond); !d.Equal(want) {
			t.Fatalf("due[%d] = %v, want %v", i, d, want)
		}
	}
}

func TestOpenLoopMeasuresLagAndBoundsConcurrency(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0), late: 2 * time.Millisecond}
	due := dueTimes(fc.t.Add(time.Millisecond), 100, 50)
	var inFlight, peak atomic.Int64
	sent := make([]atomic.Int32, len(due))
	lags := openLoop(fc.clock(), due, 3, func(i int) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		sent[i].Add(1)
		inFlight.Add(-1)
	})
	for i := range sent {
		if sent[i].Load() != 1 {
			t.Fatalf("request %d sent %d times", i, sent[i].Load())
		}
	}
	if peak.Load() > 3 {
		t.Fatalf("%d requests in flight over 3 connections", peak.Load())
	}
	// Each wait overshoots by 2ms, so each request is released 2ms late;
	// once the generator is behind, later requests are due already.
	if lags[0] != 2 {
		t.Fatalf("first lag %v ms, want 2", lags[0])
	}
	for i, l := range lags {
		if l < 0 || l > 2 {
			t.Fatalf("lag[%d] = %v ms, want within [0, 2]", i, l)
		}
	}
}

func TestOpenLoopDoesNotWaitForSlowRequests(t *testing.T) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	due := dueTimes(fc.t, 1000, 20)
	release := make(chan struct{})
	var started atomic.Int32
	done := make(chan []float64)
	go func() {
		done <- openLoop(fc.clock(), due, 1, func(int) {
			started.Add(1)
			<-release
		})
	}()
	// The one connection is stuck on the first request, yet the
	// dispatcher releases the whole schedule on time.
	for fc.clock().now().Before(due[len(due)-1]) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	lags := <-done
	for i, l := range lags {
		if l != 0 {
			t.Fatalf("lag[%d] = %v ms: the dispatcher waited for a busy connection", i, l)
		}
	}
	if started.Load() != 20 {
		t.Fatalf("%d requests sent", started.Load())
	}
}

func TestLadderSearch(t *testing.T) {
	ladder := geometricLadder(100, 1.05, 40)
	for i := 1; i < len(ladder); i++ {
		if r := ladder[i] / ladder[i-1]; math.Abs(r-1.05) > 1e-9 {
			t.Fatalf("step %d ratio %v", i, r)
		}
	}
	for _, limit := range []float64{50, 100, 333, 1000, 1e9} {
		calls := 0
		best, probed := ladderSearch(ladder, func(r float64) bool { calls++; return r <= limit })
		want := -1
		for i, r := range ladder {
			if r <= limit {
				want = i
			}
		}
		if best != want {
			t.Errorf("limit %v: best rung %d, want %d", limit, best, want)
		}
		if calls != len(probed) || calls > 6 {
			t.Errorf("limit %v: %d probes for 40 rungs", limit, calls)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 1000)
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile(xs[:100], 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of nothing must fail")
	}
	if median([]float64{3, 1, 2, 4}) != 2.5 || tailOrMax([]float64{1, 5, 2}, 0.9) != 5 {
		t.Fatal("median or tailOrMax")
	}
}

func TestDeriveSeedIsStableAndSpread(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 20; seed++ {
		for k := uint64(0); k < 20; k++ {
			s := deriveSeed(seed, 2, k)
			if s == 0 || seen[s] || s != deriveSeed(seed, 2, k) {
				t.Fatalf("deriveSeed(%d, 2, %d) = %d repeats or is zero", seed, k, s)
			}
			seen[s] = true
		}
	}
}

// TestPassOrderIsBalanced checks that n consecutive passes submit every
// spec once in every position, and that the seed picks the orders.
func TestPassOrderIsBalanced(t *testing.T) {
	const n = 16
	for _, seed := range []uint64{1, 2, 77} {
		seen := make([]map[int]bool, n) // position -> specs seen there
		for k := 0; k < n; k++ {
			order := passOrder(seed, 5+k, n)
			inPass := map[int]bool{}
			for pos, spec := range order {
				if seen[pos] == nil {
					seen[pos] = map[int]bool{}
				}
				seen[pos][spec], inPass[spec] = true, true
			}
			if len(inPass) != n {
				t.Fatalf("seed %d pass %d: %v is not a permutation", seed, k, order)
			}
		}
		for pos, specs := range seen {
			if len(specs) != n {
				t.Errorf("seed %d: position %d saw %d of %d specs in %d passes", seed, pos, len(specs), n, n)
			}
		}
	}
	a, b := passOrder(1, 0, n), passOrder(2, 0, n)
	if slices.Equal(a, b) {
		t.Errorf("seeds 1 and 2 give the same order %v", a)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists the benchmark
// prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, names []string, units map[string]string) {
		if len(got) != len(names) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(names))
		}
		for i, m := range got {
			if m.Name != names[i] || m.Unit != units[m.Name] {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, m.Name, m.Unit, names[i], units[names[i]])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eMetrics, e2eUnits)
	check("per_layer", doc.PerLayer, layerMetrics, layerUnits)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
}
