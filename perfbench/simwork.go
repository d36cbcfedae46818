package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	puno "repro"
	"repro/internal/machine"
)

// simWorkload is a batch workload: one sweep of simulations run through
// puno.RunSpecs, repeated for the measured time.
//
// The simulated inputs are fixed: every spec runs at experimentsSeed, the
// default seed of cmd/experiments. Across simulator seeds the host time of
// one high-contention sweep varies by about a quarter, far more than any
// useful regression bound. --seed instead draws the order in which each
// pass submits the specs (see passOrder), which changes the machine state
// every arena Reset starts from and how the runner packs specs onto its
// workers, and picks the seeds of the traced run's livelock census.
type simWorkload struct {
	name     string
	parallel int       // RunSpecs Parallel; 0 means one worker per CPU
	budget   puno.Time // cycle budget (Config.MaxCycles) of every run
	nodes    int       // machine size (a square mesh)
	tx       int       // tx_per_cpu; 0 keeps each profile's full scale
	profiles []string
	schemes  []puno.Scheme
	// accuracy names the profiles whose Baseline abort rate is compared
	// with Table I for paper_abort_err_pct.
	accuracy []string
}

// experimentsSeed is the simulator seed of the batch workloads.
const experimentsSeed = 12345

// accuracySeeds are the simulator seeds of the Table I comparison. It
// measures the model, not one run, so it does not follow --seed.
var accuracySeeds = []uint64{1, 2, 3, 4}

// paperBudget is the cycle budget of a 16-node full-scale run: about
// twice the longest completing run seen (labyrinth under RMW-Pred).
const paperBudget = 2_500_000

// censusSeeds is how many seeds derived from --seed the traced run's
// livelock census tries.
const censusSeeds = 2

func paperConfig(s puno.Scheme, seed uint64, budget puno.Time) puno.Config {
	cfg := puno.DefaultConfig()
	cfg.Scheme, cfg.Seed, cfg.MaxCycles = s, seed, budget
	return cfg
}

func paperHC() *simWorkload {
	hc := names(puno.HighContentionWorkloads())
	return &simWorkload{name: "paper-hc", budget: paperBudget, nodes: 16,
		profiles: hc, schemes: puno.Schemes(), accuracy: hc}
}

func paperLC() *simWorkload {
	var lc []string
	for _, p := range puno.Workloads() {
		if !p.HighContention() {
			lc = append(lc, p.Name())
		}
	}
	return &simWorkload{name: "paper-lc", parallel: 1, budget: paperBudget, nodes: 16,
		profiles: lc, schemes: puno.Schemes(), accuracy: lc}
}

// mesh256 runs one 256-node 16x16 machine at a time: the only workload
// that uses all four words of the directory sharer set and NoC routes
// longer than six hops.
func mesh256() *simWorkload {
	return &simWorkload{name: "mesh-256", parallel: 1, budget: 20_000_000, nodes: 256, tx: 4,
		profiles: []string{"intruder", "yada"},
		schemes:  []puno.Scheme{puno.SchemeBaseline, puno.SchemePUNO},
		accuracy: []string{"intruder", "yada"}}
}

// specs returns the sweep at simulator seed simSeed: every profile under
// every scheme, profiles in Table I order, schemes in the paper's order.
func (w *simWorkload) specs(simSeed uint64) []puno.RunSpec {
	side := int(math.Sqrt(float64(w.nodes)))
	var specs []puno.RunSpec
	for _, n := range w.profiles {
		wl := puno.MustWorkload(n)
		if w.tx > 0 {
			wl = wl.WithTxPerCPU(w.tx)
		}
		for _, s := range w.schemes {
			cfg := paperConfig(s, simSeed, w.budget)
			cfg.Nodes, cfg.Mesh.Width, cfg.Mesh.Height = w.nodes, side, side
			specs = append(specs, puno.RunSpec{Config: cfg, Workload: wl})
		}
	}
	return specs
}

// passOrder is the order in which pass k of a run with seed submits n
// specs: a seed-drawn order rotated by k places. Over n passes every spec
// is submitted once in every position, so the median pass of a run does
// not hinge on where one order happened to put the costly specs, and the
// arena of every pass resets through a new chain of states.
func passOrder(seed uint64, k, n int) []int {
	base := rand.New(rand.NewPCG(seed, 0)).Perm(n)
	out := make([]int, n)
	for i := range out {
		out[i] = base[(i+k)%n]
	}
	return out
}

func names(ps []*puno.Profile) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.Name())
	}
	return out
}

func specLabel(sp puno.RunSpec) string {
	return fmt.Sprintf("%s/%v/n%d/tx%d", sp.Workload.Name(), sp.Config.Scheme, sp.Config.Nodes,
		sp.Workload.(*puno.Profile).TxPerCPU())
}

// deriveSeed maps (seed, stream, k) to a simulator seed (splitmix64).
func deriveSeed(seed, stream, k uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + k*0x8CB92BA72F3D8B79 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// refRun is one reference simulation: a freshly constructed machine, run
// to completion, invariant-checked and encoded.
type refRun struct {
	data    []byte // punores/1 artifact
	res     *puno.Result
	buildNs int64
	runNs   int64
	encNs   int64
	events  uint64
	lines   int
	err     error
}

func (r *refRun) digest() string { return fmt.Sprintf("%x", sha256.Sum256(r.data)) }

// reference runs one spec on a fresh machine, outside any timed window.
func reference(sp puno.RunSpec, tr *tracer, req int) refRun {
	var r refRun
	root, end := tr.begin("reference", 0, req)
	defer end()
	var m *puno.Machine
	t := time.Now()
	tr.do("puno.NewMachine", root, req, func() { m, r.err = puno.NewMachine(sp.Config, sp.Workload) })
	r.buildNs = time.Since(t).Nanoseconds()
	if r.err != nil {
		return r
	}
	t = time.Now()
	tr.do("Machine.Run", root, req, func() { r.res, r.err = m.Run() })
	r.runNs = time.Since(t).Nanoseconds()
	if r.err != nil {
		return r
	}
	r.events, r.lines = m.Engine().Processed(), len(m.LineTable())
	tr.do("Machine.CheckInvariants", root, req, func() { r.err = m.CheckInvariants() })
	if r.err != nil {
		r.err = fmt.Errorf("invariants: %w", r.err)
		return r
	}
	t = time.Now()
	tr.do("puno.EncodeResult", root, req, func() { r.data, r.err = puno.EncodeResult(r.res) })
	r.encNs = time.Since(t).Nanoseconds()
	r.res = r.res.Clone()
	return r
}

// forEach calls fn(i) for every i < n on workers goroutines and returns
// when all calls have.
func forEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// references runs every spec's reference on workers goroutines.
func references(specs []puno.RunSpec, workers int, tr *tracer) []refRun {
	out := make([]refRun, len(specs))
	forEach(len(specs), workers, func(i int) { out[i] = reference(specs[i], tr, i+1) })
	return out
}

// referenceAll is references that fails when any reference does.
func referenceAll(specs []puno.RunSpec, workers int, tr *tracer) ([]refRun, error) {
	out := references(specs, workers, tr)
	var errs []error
	for i, r := range out {
		if r.err != nil {
			errs = append(errs, fmt.Errorf("reference %s: %w", specLabel(specs[i]), r.err))
		}
	}
	return out, errors.Join(errs...)
}

// census runs the workload's sweep at censusSeeds simulator seeds derived
// from seed, within the cycle budget, and returns how many runs exceeded
// it. Such a run is a livelock: one thread keeps aborting and retrying
// while the others are NACKed, and without the budget it would run to the
// default 2e9-cycle cap. The census keeps that known defect measured.
func (w *simWorkload) census(seed uint64) (int, error) {
	hung := 0
	for k := uint64(0); k < censusSeeds; k++ {
		specs := w.specs(deriveSeed(seed, 0, k))
		_, err := puno.RunSpecs(context.Background(), specs, puno.SweepOptions{})
		if err == nil {
			continue
		}
		errs := []error{err}
		if j, ok := err.(interface{ Unwrap() []error }); ok {
			errs = j.Unwrap()
		}
		for _, e := range errs {
			if !errors.Is(e, machine.ErrHung) {
				return hung, fmt.Errorf("census: %w", e)
			}
			hung++
			logf("livelock census: %v", e)
		}
	}
	return hung, nil
}

// runPasses runs the sweep, each pass in its own order, until the next
// pass would end after seconds.
func runPasses(ctx context.Context, specs []puno.RunSpec, refs []refRun, workers int, seed uint64, seconds float64, out *outcome) ([]pass, error) {
	var passes []pass
	start := time.Now()
	for k := 1; ; k++ {
		ps, pr := permute(specs, refs, passOrder(seed, k, len(specs)))
		p, failed, err := runPass(ctx, ps, workers, pr, nil)
		if err != nil {
			return nil, err
		}
		out.attempted += len(specs)
		out.failed += failed
		passes = append(passes, p)
		if time.Since(start).Seconds()+p.wall > seconds {
			return passes, nil
		}
	}
}

// permute returns specs and their references in the given order.
func permute(specs []puno.RunSpec, refs []refRun, order []int) ([]puno.RunSpec, []refRun) {
	ps := make([]puno.RunSpec, len(order))
	pr := make([]refRun, len(order))
	for i, j := range order {
		ps[i], pr[i] = specs[j], refs[j]
	}
	return ps, pr
}

// pass is one timed sweep.
type pass struct {
	wall   float64   // seconds
	alloc  uint64    // bytes allocated (MemStats.TotalAlloc delta)
	doneMs []float64 // per completed spec, ms from the pass start
	tailMs float64   // first idle worker to last completion
	rssMB  float64   // peak resident set of the pass
}

// runPass runs one sweep through RunSpecs and checks every result against
// its reference artifact.
func runPass(ctx context.Context, specs []puno.RunSpec, workers int, refs []refRun, tr *tracer) (pass, int, error) {
	var p pass
	var mu sync.Mutex
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	if err := resetPeakRSS(); err != nil {
		return p, len(specs), err
	}
	_, end := tr.begin("puno.RunSpecs", 0, 0)
	t0 := time.Now()
	res, err := puno.RunSpecs(ctx, specs, puno.SweepOptions{
		Parallel: workers,
		Progress: func(done, total int) {
			d := float64(time.Since(t0).Nanoseconds()) / 1e6
			mu.Lock()
			p.doneMs = append(p.doneMs, d)
			mu.Unlock()
		},
	})
	p.wall = time.Since(t0).Seconds()
	end()
	var rerr error
	if p.rssMB, rerr = peakRSSMB(); rerr != nil {
		return p, len(specs), rerr
	}
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - alloc0
	if err != nil {
		return p, len(specs), err
	}
	// The first worker goes idle at completion n-w+1 (no task is left to
	// start); the tail runs from there to the last completion.
	if n := len(p.doneMs); n >= workers && workers > 0 {
		p.tailMs = p.doneMs[n-1] - p.doneMs[n-workers]
	}
	failed := 0
	for i, r := range res {
		data, err := puno.EncodeResult(r)
		if err != nil || !bytes.Equal(data, refs[i].data) {
			failed++
			logf("mismatch: %s differs from its fresh-machine reference", specLabel(specs[i]))
		}
	}
	return p, failed, nil
}

// setupOnce builds the sweep's specs and a machine for every spec: what
// a sweep pays before its first simulation starts.
func (w *simWorkload) setupOnce() (float64, error) {
	runtime.GC() // every repeat starts from the same heap
	var err error
	s := timeIt(func() {
		for _, sp := range w.specs(experimentsSeed) {
			if _, err = puno.NewMachine(sp.Config, sp.Workload); err != nil {
				return
			}
		}
	})
	return s, err
}

// A run repeats its set-up at least setupRepeats times and for at least
// setupSecs of set-up time; setup_s is the median. A sweep's machines take
// a few milliseconds to build, so a fixed count would leave the median to
// a handful of collector and page-fault hiccups.
const (
	setupRepeats = 15
	setupSecs    = 0.5
)

func runSim(w *simWorkload, o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, trace: map[string]any{}}
	workers := w.parallel
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	var setups []float64
	for total := 0.0; len(setups) < setupRepeats || total < setupSecs; {
		s, err := w.setupOnce()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, s)
		total += s
	}
	out.set("setup_s", median(setups))

	// Reference pass (fresh machines, outside the timed window). A traced
	// run keeps it serial so each span times one simulation alone.
	var tr *tracer
	refWorkers := runtime.NumCPU()
	if o.trace {
		tr = newTracer()
		refWorkers = 1
	}
	specs := w.specs(experimentsSeed)
	refs, err := referenceAll(specs, refWorkers, tr)
	if err != nil {
		return nil, err
	}
	out.failed += checkPins(w.name, specs, refs)

	if o.trace {
		return out, traceSim(w, o, out, tr, specs, refs, workers)
	}

	// Memory the reference runs freed goes back to the kernel first, so
	// the passes' peaks are their own.
	debug.FreeOSMemory()
	passes, err := runPasses(context.Background(), specs, refs, workers, o.seed, o.seconds, out)
	if err != nil {
		return nil, err
	}
	var sims float64
	var alloc uint64
	var makespans, rates, rss []float64
	var walls []string
	for _, p := range passes {
		sims += float64(len(p.doneMs))
		alloc += p.alloc
		makespans = append(makespans, p.wall*1000)
		rss = append(rss, p.rssMB)
		rates = append(rates, float64(len(p.doneMs))/p.wall)
		walls = append(walls, fmt.Sprintf("%.3f", p.wall))
	}
	logf("%s: %d passes of %d sims; pass walls %s", w.name, len(passes), len(specs), strings.Join(walls, " "))
	// Every pass does the same work, so the median pass ignores one that
	// the shared host stalled.
	out.set("sims_per_s", median(rates))
	out.set("alloc_mb_per_sim", float64(alloc)/1e6/sims)
	// The peak of one pass hinges on where the collector's cycles fall,
	// so the median pass is the repeatable figure.
	out.set("peak_rss_mb", median(rss))
	// A batch user's request is the sweep: they wait for its last result.
	// A run holds far fewer than the 1000 sweeps a p99 needs, so both
	// latency metrics report the median sweep.
	out.set("req_ms_p50", median(makespans))
	out.set("req_ms_p99", median(makespans))
	errPct, err := abortError(w.accuracy, paperBudget)
	if err != nil {
		return nil, err
	}
	out.set("paper_abort_err_pct", errPct)
	return out, nil
}

// abortError is the mean absolute difference, in percentage points,
// between each profile's Baseline abort rate and Table I, over
// accuracySeeds, at the paper's 16-node full-scale configuration.
func abortError(profiles []string, budget puno.Time) (float64, error) {
	var specs []puno.RunSpec
	for _, n := range profiles {
		for _, s := range accuracySeeds {
			specs = append(specs, puno.RunSpec{Config: paperConfig(puno.SchemeBaseline, s, budget), Workload: puno.MustWorkload(n)})
		}
	}
	res, err := puno.RunSpecs(context.Background(), specs, puno.SweepOptions{})
	if err != nil {
		return 0, fmt.Errorf("accuracy runs: %w", err)
	}
	var diffs []float64
	for i, r := range res {
		p := specs[i].Workload.(*puno.Profile)
		diffs = append(diffs, 100*math.Abs(r.AbortRate()-p.PaperAbortRate))
	}
	return mean(diffs), nil
}

// traceSim is the traced run of a batch workload: an arena-reuse chain
// under spans, then untraced and traced passes for half the time each.
func traceSim(w *simWorkload, o options, out *outcome, tr *tracer, specs []puno.RunSpec, refs []refRun, workers int) error {
	// Arena-reuse chain: one machine Reset for every spec, in an order
	// drawn from the seed, each result checked against the fresh-machine
	// reference and round-tripped through the codec.
	chain, chainRefs := permute(specs, refs, passOrder(o.seed, 0, len(specs)))
	var m *puno.Machine
	var builds, runs, encs, decs []float64
	var runNs int64
	var events uint64
	lines := 0
	for i, sp := range chain {
		req := len(specs) + i + 1
		root, end := tr.begin("arena", 0, req)
		var err error
		t := time.Now()
		if m == nil {
			tr.do("puno.NewMachine", root, req, func() { m, err = puno.NewMachine(sp.Config, sp.Workload) })
		} else {
			tr.do("Machine.Reset", root, req, func() { err = m.Reset(sp.Config, sp.Workload) })
		}
		builds = append(builds, ms(time.Since(t)))
		if err != nil {
			end()
			return fmt.Errorf("arena %s: %w", specLabel(sp), err)
		}
		var res *puno.Result
		t = time.Now()
		tr.do("Machine.Run", root, req, func() { res, err = m.Run() })
		d := time.Since(t)
		runs = append(runs, ms(d))
		runNs += d.Nanoseconds()
		if err != nil {
			end()
			return fmt.Errorf("arena %s: %w", specLabel(sp), err)
		}
		events += m.Engine().Processed()
		lines += len(m.LineTable())
		var data []byte
		t = time.Now()
		tr.do("puno.EncodeResult", root, req, func() { data, err = puno.EncodeResult(res) })
		encs = append(encs, us(time.Since(t)))
		var back *puno.Result
		t = time.Now()
		tr.do("puno.DecodeResult", root, req, func() { back, err = puno.DecodeResult(data) })
		decs = append(decs, us(time.Since(t)))
		end()
		out.attempted++
		again, err2 := puno.EncodeResult(back)
		if err != nil || err2 != nil || !bytes.Equal(data, chainRefs[i].data) || !bytes.Equal(again, data) {
			out.failed++
			logf("mismatch: arena-reused %s differs from its fresh-machine reference", specLabel(sp))
		}
	}
	for _, r := range refs {
		builds = append(builds, float64(r.buildNs)/1e6)
		runs = append(runs, float64(r.runNs)/1e6)
		encs = append(encs, float64(r.encNs)/1e3)
	}

	// Untraced and traced passes alternate, so drift of the shared host
	// falls on both; each traced pass runs under spans and the CPU profile.
	ctx := context.Background()
	var samples []profSample
	var tracedWall float64
	var tails, plainWalls, tracedWalls []float64
	var gcCycles uint32
	var gcPause uint64
	start := time.Now()
	for i := 0; ; i++ {
		traced := i%2 == 1
		var ptr *tracer
		var prof bytes.Buffer
		var gc0, gc1 runtime.MemStats
		if traced {
			ptr = tr
			runtime.ReadMemStats(&gc0)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
		}
		ps, pr := permute(specs, refs, passOrder(o.seed, i+1, len(specs)))
		p, failed, err := runPass(ctx, ps, workers, pr, ptr)
		if traced {
			pprof.StopCPUProfile()
			runtime.ReadMemStats(&gc1)
		}
		if err != nil {
			return err
		}
		out.attempted += len(specs)
		out.failed += failed
		if !traced {
			plainWalls = append(plainWalls, p.wall)
		} else {
			ss, err := parseProfile(prof.Bytes())
			if err != nil {
				return err
			}
			samples = append(samples, ss...)
			gcCycles += gc1.NumGC - gc0.NumGC
			gcPause += gc1.PauseTotalNs - gc0.PauseTotalNs
			tracedWall += p.wall
			tracedWalls = append(tracedWalls, p.wall)
			tails = append(tails, p.tailMs)
		}
		if traced && time.Since(start).Seconds()+2*p.wall > o.seconds {
			break
		}
	}

	shares, _ := moduleShares(samples)
	for _, mod := range cpuModules {
		out.set(mod+".cpu_pct", shares[mod])
	}
	out.set("gc.cycles", float64(gcCycles))
	out.set("gc.pause_ms", float64(gcPause)/1e6)
	// RunSpecs labels every task, so labelled CPU time is time spent
	// running specs.
	out.set("runner.busy_frac", float64(labeledNanos(samples, "task"))/1e9/(float64(workers)*tracedWall))
	out.set("runner.tail_ms", median(tails))
	out.set("bench.trace_overhead_pct", 100*(median(tracedWalls)/median(plainWalls)-1))

	out.set("sim.ns_per_event", float64(runNs)/float64(events))
	out.set("sim.events", float64(events))
	livelocked, err := w.census(o.seed)
	if err != nil {
		return err
	}
	out.set("sim.livelocked_specs", float64(livelocked))
	out.set("mem.lines", float64(lines))
	out.set("machine.build_ms", median(builds))
	out.set("machine.run_ms_p50", median(runs))
	out.set("machine.run_ms_p90", tailOrMax(runs, 0.9))
	out.set("machine.encode_us", median(encs))
	out.set("machine.decode_us", median(decs))
	results := make([]*puno.Result, len(refs))
	for i, r := range refs {
		results[i] = r.res
	}
	setModelCounts(out, results)
	zeroLayers(out)

	spans := tr.snapshot()
	out.trace["spans"] = spans
	out.trace["span_summary"] = summarize(spans)
	out.trace["module_cpu_pct"] = shares
	out.trace["top_packages"] = topPackages(samples, 25)
	out.trace["specs"] = len(specs)
	return nil
}

// setModelCounts sets the simulated per-layer counts of one pass: they
// come from the public Result fields and repeat exactly for a seed.
func setModelCounts(out *outcome, results []*puno.Result) {
	var cycles, msgs, trav, queue, busy, busyNacks, mcast, ucast, mispred uint64
	var commits, aborts, good, disc, falseAb, accesses, nacks, retries, backoff uint64
	for _, r := range results {
		cycles += uint64(r.Cycles)
		for c := range r.Net.Messages {
			msgs += r.Net.Messages[c]
		}
		trav += r.Net.TotalTraversals()
		queue += r.Net.QueueingDelay
		busy += r.DirBusyAll
		busyNacks += r.DirBusyNacks
		mcast += r.DirMulticastFwds
		ucast += r.DirUnicasts
		mispred += r.Mispredictions
		commits += r.Commits
		aborts += r.Aborts
		good += r.GoodCycles
		disc += r.DiscardedCycles
		falseAb += r.GETXOutcomes[puno.OutcomeFalseAbort]
		accesses += r.TxGETXAccesses
		nacks += r.Nacks
		retries += r.Retries
		backoff += r.BackoffCycles
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out.set("sim.cycles", float64(cycles))
	out.set("noc.messages", float64(msgs))
	out.set("noc.router_traversals", float64(trav))
	out.set("noc.queueing_cycles", float64(queue))
	out.set("coherence.busy_cycles", float64(busy))
	out.set("coherence.busy_nacks", float64(busyNacks))
	out.set("coherence.multicast_fwds", float64(mcast))
	out.set("coherence.unicasts", float64(ucast))
	out.set("coherence.mispredictions", float64(mispred))
	out.set("htm.commits", float64(commits))
	out.set("htm.aborts", float64(aborts))
	out.set("htm.commit_ratio", ratio(commits, commits+aborts))
	out.set("htm.good_cycle_ratio", ratio(good, good+disc))
	out.set("htm.false_abort_frac", ratio(falseAb, accesses))
	out.set("cm.nacks", float64(nacks))
	out.set("cm.retries", float64(retries))
	out.set("cm.backoff_cycles", float64(backoff))
}

// tailOrMax is the p-quantile when the sample supports it, else the
// largest value (the sample's own tail).
func tailOrMax(xs []float64, p float64) float64 {
	if v, err := percentile(xs, p); err == nil {
		return v
	}
	return maxOf(xs)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
