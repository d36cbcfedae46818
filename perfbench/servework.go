package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	puno "repro"
	"repro/internal/machine"
	"repro/internal/serve"
)

// serve-mix settings.
const (
	hotTx        = 2         // tx_per_cpu of the hot set
	missFrac     = 0.10      // share of requests that ask for a fresh point
	fixedRate    = 400       // req/s of the fixed-rate phase
	windowReqs   = 1000      // requests per p99 window of the fixed-rate phase
	probeSecs    = 1.2       // schedule length of a ladder probe
	probeMax     = 5000      // most requests in a probe: the fresh pool holds a tenth of it
	sloSearches  = 3         // ladder searches per run; slo_rps is their median
	traceReqs    = 10000     // requests of the traced phase: 1000 misses for the miss-path p99
	serveBudget  = 2_000_000 // cycle budget of the benchmark's direct runs
	codeVersion  = "perfbench"
	latencyLimit = 50.0 // ms: the p99 limit slo_rps is measured against
)

// missTx are the tx_per_cpu values of fresh points.
var missTx = []int{2, 4, 8}

// missProfiles are the profiles fresh points are drawn from: those whose
// cold point costs milliseconds. A cold labyrinth point costs 30-270 ms
// and a bayes point up to 50 ms, so with them in the stream p99 would
// count how many of those a seed happened to draw.
var missProfiles = []string{"intruder", "yada", "genome", "kmeans", "ssca2", "vacation"}

// sloLadder is the fixed ladder of offered rates slo_rps is chosen from:
// 2.5% steps from 400 req/s to about 9200 req/s, over twice what two
// cores of the sizing host sustain.
var sloLadder = geometricLadder(400, 1.025, 128)

// probeLen is the number of requests of a ladder probe at rate: probeSecs
// of schedule, so that every rung gives a backlog the same time to grow,
// and at least windowReqs, so that its p99 has ten samples beyond it.
func probeLen(rate float64) int {
	return min(max(int(rate*probeSecs), windowReqs), probeMax)
}

// schemeNames are the paper's four schemes as the service spells them.
func schemeNames() []string {
	var out []string
	for _, s := range puno.Schemes() {
		out = append(out, s.String())
	}
	return out
}

// runSpecOf builds the RunSpec the service resolves spec to: Table II
// defaults plus the spec's scheme, seed and tx_per_cpu.
func runSpecOf(sp serve.Spec) puno.RunSpec {
	wl := puno.MustWorkload(sp.Workload).WithTxPerCPU(sp.TxPerCPU)
	cfg := puno.DefaultConfig()
	s, err := puno.SchemeByName(sp.Scheme)
	if err != nil {
		panic(err) // specs come from schemeNames
	}
	cfg.Scheme, cfg.Seed = s, sp.Seed
	return puno.RunSpec{Config: cfg, Workload: wl}
}

// point is one request target with everything needed to check its answer.
type point struct {
	spec serve.Spec
	key  string // content address the service must report
	ref  refRun // the benchmark's own direct run
}

// pointSource hands out points: the hot set, and a pool of fresh points,
// each screened by a direct run before the service sees it. Every phase
// runs on a service of its own whose cache holds only the hot set, so
// every phase can ask for the same fresh points: phases at different
// rates then differ in rate only, and the pool is screened once.
type pointSource struct {
	seed       uint64
	combos     []serve.Spec // see freshCombos
	hot        []point
	pool       []point // fresh points
	nextMiss   uint64
	livelocked int
	direct     []refRun // every direct run, for the machine metrics
	arena      *puno.Arena
	arenaRuns  int
	failed     int // direct-run mismatches (arena reuse vs fresh)
	tr         *tracer
}

// freshCombos lists every (profile, scheme, tx_per_cpu) a fresh point can
// take. The stream walks a seed-derived permutation of it, so any hundred
// consecutive fresh points hold nearly the same mix and a window's p99
// does not hinge on how many of the costlier combinations it drew.
func freshCombos(seed uint64) []serve.Spec {
	var out []serve.Spec
	for _, wl := range missProfiles {
		for _, s := range schemeNames() {
			for _, tx := range missTx {
				out = append(out, serve.Spec{Workload: wl, Scheme: s, TxPerCPU: tx})
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 2))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// screenPoints runs the direct reference of each spec on nproc goroutines
// and returns the points whose run completes within the cycle budget.
func (ps *pointSource) screenPoints(specs []serve.Spec) ([]point, error) {
	rs := make([]puno.RunSpec, len(specs))
	for i, sp := range specs {
		rs[i] = runSpecOf(sp)
		rs[i].Config.MaxCycles = serveBudget
	}
	refs := references(rs, runtime.NumCPU(), ps.tr)
	var out []point
	for i, r := range refs {
		switch {
		case errors.Is(r.err, machine.ErrHung):
			ps.livelocked++
			logf("livelock: %s seed %d exceeded %d cycles; skipping the point",
				specLabel(rs[i]), specs[i].Seed, serveBudget)
			continue
		case r.err != nil:
			return nil, fmt.Errorf("direct run %s: %w", specLabel(rs[i]), r.err)
		}
		ps.direct = append(ps.direct, r)
		key, err := serve.BuildKey(codeVersion, runSpecOf(specs[i]).Config, runSpecOf(specs[i]).Workload.(*puno.Profile))
		if err != nil {
			return nil, err
		}
		out = append(out, point{spec: specs[i], key: key.String(), ref: r})
	}
	// Every tenth fresh point also runs on one long-lived arena (the
	// reuse path the service's pool takes) and must match byte for byte.
	for i := 0; i < len(out); i += 10 {
		res, err := ps.arena.Run(runSpecOf(out[i].spec))
		ps.arenaRuns++
		var data []byte
		if err == nil {
			data, err = puno.EncodeResult(res)
		}
		if err != nil || !bytes.Equal(data, out[i].ref.data) {
			ps.failed++
			logf("mismatch: arena run of %s differs from its fresh-machine run", specLabel(runSpecOf(out[i].spec)))
		}
	}
	return out, nil
}

func newPointSource(seed uint64, tr *tracer) (*pointSource, error) {
	ps := &pointSource{seed: seed, combos: freshCombos(seed), arena: puno.NewArena(), tr: tr}
	var specs []serve.Spec
	k := uint64(0)
	for _, wl := range puno.Workloads() {
		for _, s := range schemeNames() {
			specs = append(specs, serve.Spec{Workload: wl.Name(), Scheme: s, Seed: deriveSeed(seed, 1, k), TxPerCPU: hotTx})
			k++
		}
	}
	hot, err := ps.screenPoints(specs)
	if err != nil {
		return nil, err
	}
	ps.hot = hot
	return ps, nil
}

// fresh returns the first n points of the fresh pool, screening more of
// the seed's stream when the pool is short.
func (ps *pointSource) fresh(n int) ([]point, error) {
	for len(ps.pool) < n {
		var specs []serve.Spec
		for len(specs) < n-len(ps.pool) {
			sp := ps.combos[ps.nextMiss%uint64(len(ps.combos))]
			sp.Seed = deriveSeed(ps.seed, 2, ps.nextMiss)
			specs = append(specs, sp)
			ps.nextMiss++
		}
		pts, err := ps.screenPoints(specs)
		if err != nil {
			return nil, err
		}
		ps.pool = append(ps.pool, pts...)
	}
	return ps.pool[:n], nil
}

// plan draws one phase's requests: a missFrac share of them, at random
// positions and in random order, are fresh points, taken from the pool
// starting at index from; the rest are uniformly chosen hot points.
func (ps *pointSource) plan(phase uint64, n, from int) ([]*point, []bool, error) {
	rng := rand.New(rand.NewPCG(ps.seed, 3<<32|phase))
	misses := int(math.Round(missFrac * float64(n)))
	miss := make([]bool, n)
	for _, i := range rng.Perm(n)[:misses] {
		miss[i] = true
	}
	fresh, err := ps.fresh(from + misses)
	if err != nil {
		return nil, nil, err
	}
	fresh = fresh[from:]
	order := rng.Perm(misses)
	reqs := make([]*point, n)
	for i := range reqs {
		if miss[i] {
			reqs[i], order = &fresh[order[0]], order[1:]
		} else {
			reqs[i] = &ps.hot[rng.IntN(len(ps.hot))]
		}
	}
	return reqs, miss, nil
}

// server is one running punoserve instance on loopback.
type server struct {
	svc  *serve.Service
	http *http.Server
	base string
	c    *http.Client
}

func startServer(conns int) (*server, error) {
	svc, err := serve.New(serve.Options{
		CodeVersion: codeVersion,
		QueueDepth:  4096,    // overload shows as latency, never as refusals
		MaxJobs:     1 << 16, // a finished job outlives its client's polls
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(),
		c: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
			},
		},
	}
	go s.http.Serve(ln)
	return s, nil
}

// stop closes the listener and connections and drains the service.
func (s *server) stop() {
	s.http.Close()
	s.c.CloseIdleConnections()
	s.svc.Drain()
}

// fetched is what one request observed.
type fetched struct {
	data   []byte
	key    string
	cached bool
	waitMs float64 // time in the long-poll leg (misses only)
	decNs  int64
}

// fetch is the benchmark's whole client: submit the spec, long-poll the
// job when it is not already done, fetch the artifact by content address,
// and decode it. It uses only POST /v1/jobs, GET /v1/jobs/{id}?wait=1 and
// GET /v1/results/{key}.
func fetch(c *http.Client, base string, spec serve.Spec, tr *tracer, req int) (fetched, error) {
	var f fetched
	body, _ := json.Marshal(spec)
	var job struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
	}
	root, end := tr.begin("request", 0, req)
	defer end()
	err := call(c, "POST", base+"/v1/jobs", body, &job, nil, tr, "http.submit", root, req)
	if err != nil {
		return f, err
	}
	f.key, f.cached = job.Key, job.Cached
	if job.State != "done" {
		t := time.Now()
		if err := call(c, "GET", base+"/v1/jobs/"+job.ID+"?wait=1", nil, &job, nil, tr, "http.wait", root, req); err != nil {
			return f, err
		}
		f.waitMs = ms(time.Since(t))
		if job.State != "done" {
			return f, fmt.Errorf("job %s ended %s", job.ID, job.State)
		}
	}
	if err := call(c, "GET", base+"/v1/results/"+job.Key, nil, nil, &f.data, tr, "http.result", root, req); err != nil {
		return f, err
	}
	t := time.Now()
	var derr error
	tr.do("puno.DecodeResult", root, req, func() { _, derr = puno.DecodeResult(f.data) })
	f.decNs = time.Since(t).Nanoseconds()
	if derr != nil {
		return f, fmt.Errorf("artifact %s: %w", job.Key, derr)
	}
	return f, nil
}

// call makes one HTTP request under a span and decodes a JSON reply into
// into, or keeps the raw body in raw. Any status other than 2xx fails.
func call(c *http.Client, method, url string, body []byte, into any, raw *[]byte, tr *tracer, name string, parent, req int) error {
	_, end := tr.begin(name, parent, req)
	defer end()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{code: resp.StatusCode, msg: fmt.Sprintf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(b)))}
	}
	if raw != nil {
		*raw = b
		return nil
	}
	return json.Unmarshal(b, into)
}

// statusError is a reply with a status other than 2xx.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// check compares what a request fetched with the benchmark's direct run.
func (p *point) check(f fetched) error {
	if f.key != p.key {
		return fmt.Errorf("%s: service key %s, expected %s", p.spec.Workload, f.key, p.key)
	}
	if !bytes.Equal(f.data, p.ref.data) {
		return fmt.Errorf("%s seed %d: artifact differs from the direct run", p.spec.Workload, p.spec.Seed)
	}
	return nil
}

// phase is one open-loop run at a fixed rate.
type phase struct {
	lat, hitLat, missLat, waitMs, lags, decUs []float64
	failed                                    int
	rejected                                  int // 429 replies (queue full)
	// byDue holds every request's latency in schedule order; a failed
	// request counts as missing any limit (+Inf).
	byDue []float64
}

func runPhase(s *server, reqs []*point, miss []bool, rate float64, conns int, tr *tracer) *phase {
	ph := &phase{}
	lat := make([]float64, len(reqs))
	waits := make([]float64, len(reqs))
	decs := make([]float64, len(reqs))
	ok := make([]bool, len(reqs))
	var rejected atomic.Int64
	due := dueTimes(time.Now().Add(20*time.Millisecond), rate, len(reqs))
	ph.lags = openLoop(realClock, due, conns, func(i int) {
		f, err := fetch(s.c, s.base, reqs[i].spec, tr, i+1)
		if err == nil {
			err = reqs[i].check(f)
		}
		lat[i] = ms(time.Since(due[i]))
		if err != nil {
			var se *statusError
			if errors.As(err, &se) && se.code == http.StatusTooManyRequests {
				rejected.Add(1)
			}
			logf("request %d failed: %v", i, err)
			return
		}
		ok[i], waits[i], decs[i] = true, f.waitMs, float64(f.decNs)/1e3
	})
	ph.rejected = int(rejected.Load())
	for i := range reqs {
		if !ok[i] {
			ph.byDue = append(ph.byDue, math.Inf(1))
			ph.failed++
			continue
		}
		ph.lat = append(ph.lat, lat[i])
		ph.byDue = append(ph.byDue, lat[i])
		ph.decUs = append(ph.decUs, decs[i])
		if miss[i] {
			ph.missLat = append(ph.missLat, lat[i])
			ph.waitMs = append(ph.waitMs, waits[i])
		} else {
			ph.hitLat = append(ph.hitLat, lat[i])
		}
	}
	return ph
}

// lastTenth is the latencies of the last tenth of the schedule.
func (ph *phase) lastTenth() []float64 { return ph.byDue[len(ph.byDue)-len(ph.byDue)/10:] }

// meets reports whether a probe stayed within the latency limit with no
// growing backlog: p99 under the limit, no failed request, and the last
// tenth of the schedule still served at a quarter of the limit.
func (ph *phase) meets() bool {
	p99, err := percentile(ph.lat, 0.99)
	return err == nil && ph.failed == 0 && p99 <= latencyLimit && median(ph.lastTenth()) <= latencyLimit/4
}

// setupServer starts a service and pre-fills its cache with the hot set
// through the HTTP API.
func setupServer(ps *pointSource, conns int) (*server, error) {
	s, err := startServer(conns)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(ps.hot))
	forEach(len(ps.hot), conns, func(i int) {
		f, err := fetch(s.c, s.base, ps.hot[i].spec, nil, 0)
		if err == nil {
			err = ps.hot[i].check(f)
		}
		errs[i] = err
	})
	if err := errors.Join(errs...); err != nil {
		s.stop()
		return nil, fmt.Errorf("pre-fill: %w", err)
	}
	return s, nil
}

func runServe(o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}, trace: map[string]any{}}
	conns := runtime.NumCPU()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	ps, err := newPointSource(o.seed, tr)
	if err != nil {
		return nil, err
	}
	if o.seed == defaultSeed {
		specs, refs := pinnedOf(ps)
		out.failed += checkPins("serve-mix", specs, refs)
	}

	var s *server
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.stop()
		}
		var err error
		setups = append(setups, timeIt(func() { s, err = setupServer(ps, conns) }))
		if err != nil {
			return nil, err
		}
	}
	defer s.stop()
	out.set("setup_s", median(setups))
	out.attempted += len(ps.hot) * setupRepeats

	if o.trace {
		err = traceServe(o, out, ps, s, conns, tr)
	} else {
		err = measureServe(o, out, ps, s, conns)
	}
	if err != nil {
		return nil, err
	}
	out.attempted += ps.arenaRuns
	out.failed += ps.failed
	logf("serve-mix: %d livelocked points skipped", ps.livelocked)
	return out, nil
}

// measureServe is the untraced run: the whole time at the fixed rate.
func measureServe(o options, out *outcome, ps *pointSource, s *server, conns int) error {
	n := max(int(fixedRate*o.seconds), 2*windowReqs)
	reqs, miss, err := ps.plan(0, n, 0)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runs0 := s.svc.Runs()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	t := time.Now()
	ph := runPhase(s, reqs, miss, fixedRate, conns, nil)
	wall := time.Since(t).Seconds()
	runtime.ReadMemStats(&m1)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	runs := float64(s.svc.Runs() - runs0)
	out.attempted += n
	out.failed += ph.failed
	// p99 per window of windowReqs requests (in schedule order), and the
	// median of those: one stall of the shared host moves one window.
	var p99s []float64
	for lo := 0; lo+windowReqs <= len(ph.byDue); lo += windowReqs {
		p99, err := percentile(ph.byDue[lo:lo+windowReqs], 0.99)
		if err != nil {
			return err
		}
		p99s = append(p99s, p99)
	}
	out.set("req_ms_p50", median(ph.lat))
	out.set("req_ms_p99", median(p99s))
	out.set("sims_per_s", runs/wall)
	out.set("alloc_mb_per_sim", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/runs)
	out.set("peak_rss_mb", rss)
	errPct, err := abortError(names(puno.Workloads()), paperBudget)
	if err != nil {
		return err
	}
	out.set("paper_abort_err_pct", errPct)
	return nil
}

// sloRPS returns the highest rate on sloLadder at which the service keeps
// the latency limit without a growing backlog. Every probe runs on a
// service of its own, pre-filled with the hot set. Near the knee one probe
// passes or fails by chance, and a binary search never returns across a
// wrong decision, so the result is the median of three independent
// searches. Each search asks for its own slice of the fresh pool: one
// costly point then sways one search, not every probe.
func sloRPS(out *outcome, ps *pointSource, conns int) (float64, error) {
	slice := int(missFrac * probeMax)
	if _, err := ps.fresh(sloSearches * slice); err != nil {
		return 0, err
	}
	probeNo := uint64(1 << 20) // plan streams apart from the other phases'
	from := 0
	probe := func(rate float64) bool {
		n := probeLen(rate)
		reqs, miss, err := ps.plan(probeNo, n, from)
		probeNo++
		if err != nil {
			logf("probe plan: %v", err)
			return false
		}
		ns, err := setupServer(ps, conns)
		if err != nil {
			logf("probe server: %v", err)
			return false
		}
		ph := runPhase(ns, reqs, miss, rate, conns, nil)
		ns.stop()
		out.attempted += n
		out.failed += ph.failed
		p99, _ := percentile(ph.lat, 0.99)
		logf("probe %.0f req/s: p99 %.2f ms, last-tenth p50 %.2f ms, failed %d -> %v",
			rate, p99, median(ph.lastTenth()), ph.failed, ph.meets())
		return ph.meets()
	}
	var found []float64
	for search := 0; search < sloSearches; search++ {
		from = search * slice
		best, _ := ladderSearch(sloLadder, probe)
		if best < 0 {
			return 0, fmt.Errorf("the lowest rung (%.0f req/s) misses the %.0f ms limit", sloLadder[0], latencyLimit)
		}
		found = append(found, sloLadder[best])
	}
	logf("slo_rps %.1f, the median of searches ending at %v", median(found), found)
	return median(found), nil
}

// pinnedOf lists the points whose digests are pinned for the default
// seed: the hot set, every profile under every scheme.
func pinnedOf(ps *pointSource) ([]puno.RunSpec, []refRun) {
	var specs []puno.RunSpec
	var refs []refRun
	for _, p := range ps.hot {
		specs = append(specs, runSpecOf(p.spec))
		refs = append(refs, p.ref)
	}
	return specs, refs
}

// servePinned computes the default seed's pinned points for --pin.
func servePinned(seed uint64) ([]puno.RunSpec, []refRun, error) {
	ps, err := newPointSource(seed, nil)
	if err != nil {
		return nil, nil, err
	}
	specs, refs := pinnedOf(ps)
	return specs, refs, nil
}

// traceServe is the traced run: in-process and HTTP probes of the hit
// path, an untraced phase and a longer traced phase at the fixed rate.
func traceServe(o options, out *outcome, ps *pointSource, s *server, conns int, tr *tracer) error {
	// In-process legs on the hot set.
	const reps = 20
	var keyUs, submitUs, httpUs []float64
	for r := 0; r < reps; r++ {
		for i := range ps.hot {
			p := &ps.hot[i]
			rs := runSpecOf(p.spec)
			t := time.Now()
			tr.do("serve.BuildKey", 0, 0, func() { _, _ = serve.BuildKey(codeVersion, rs.Config, rs.Workload.(*puno.Profile)) })
			keyUs = append(keyUs, us(time.Since(t)))
			t = time.Now()
			var job *serve.Job
			var err error
			tr.do("Service.Submit", 0, 0, func() { job, err = s.svc.Submit(p.spec) })
			submitUs = append(submitUs, us(time.Since(t)))
			out.attempted++
			if err != nil || !job.Cached {
				out.failed++
				logf("in-process submit of a hot point did not hit: %v", err)
			}
			t = time.Now()
			f, err := fetch(s.c, s.base, p.spec, tr, 0)
			httpUs = append(httpUs, us(time.Since(t)))
			out.attempted++
			if err == nil {
				err = p.check(f)
			}
			if err != nil {
				out.failed++
				logf("HTTP hit: %v", err)
			}
		}
	}
	out.set("serve.key_us", median(keyUs))
	out.set("serve.submit_hit_us", median(submitUs))
	out.set("serve.http_overhead_us", median(httpUs)-median(submitUs))

	// Untraced phase, then the traced phase under the CPU profile.
	n := max(int(fixedRate*o.seconds/4), windowReqs)
	reqs, miss, err := ps.plan(0, n, 0)
	if err != nil {
		return err
	}
	plain := runPhase(s, reqs, miss, fixedRate, conns, nil)
	out.attempted += n
	out.failed += plain.failed

	// The traced phase asks for the same fresh points, so it needs a
	// service of its own.
	reqs, miss, err = ps.plan(1, traceReqs, 0)
	if err != nil {
		return err
	}
	ts, err := setupServer(ps, conns)
	if err != nil {
		return err
	}
	defer ts.stop()
	st0 := ts.svc.Stats()
	var qmax atomic.Int64
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				var st serve.Stats
				if err := call(ts.c, "GET", ts.base+"/v1/stats", nil, &st, nil, nil, "", 0, 0); err == nil && int64(st.QueueLen) > qmax.Load() {
					qmax.Store(int64(st.QueueLen))
				}
			}
		}
	}()
	var prof bytes.Buffer
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	traced := runPhase(ts, reqs, miss, fixedRate, conns, tr)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&gc1)
	close(stopSampler)
	samplerDone.Wait()
	st1 := ts.svc.Stats()
	out.attempted += traceReqs
	out.failed += traced.failed

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares, _ := moduleShares(samples)
	for _, mod := range cpuModules {
		out.set(mod+".cpu_pct", shares[mod])
	}
	out.set("gc.cycles", float64(gc1.NumGC-gc0.NumGC))
	out.set("gc.pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)
	out.set("bench.trace_overhead_pct", 100*(median(traced.lat)/median(plain.lat)-1))

	var errs []error
	set := func(name string, xs []float64, p float64) {
		v, err := percentile(xs, p)
		if p == 0.5 {
			v, err = median(xs), nil
		}
		errs = append(errs, err)
		out.set(name, v)
	}
	set("serve.hit_ms_p50", traced.hitLat, 0.5)
	set("serve.hit_ms_p99", traced.hitLat, 0.99)
	set("serve.miss_ms_p50", traced.missLat, 0.5)
	set("serve.miss_ms_p99", traced.missLat, 0.99)
	set("serve.wait_ms_p99", traced.waitMs, 0.99)
	set("loadgen.lag_ms_p99", traced.lags, 0.99)
	slo, err := sloRPS(out, ps, conns)
	errs = append(errs, err)
	out.set("serve.slo_rps", slo)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	hits := st1.Cache.Hits - st0.Cache.Hits
	lookups := hits + st1.Cache.Misses - st0.Cache.Misses
	out.set("serve.queue_len_max", float64(qmax.Load()))
	out.set("serve.runs", float64(st1.Runs-st0.Runs))
	out.set("serve.collapsed", float64(st1.Collapsed-st0.Collapsed))
	out.set("serve.hit_ratio", float64(hits)/float64(max(lookups, 1)))
	out.set("serve.rejected", float64(traced.rejected))
	out.set("loadgen.sent", float64(len(reqs)))

	// Host times from the benchmark's direct runs of the same points;
	// simulated counts, like every other workload's, from one fixed set of
	// runs: the hot set.
	var runNs int64
	var events uint64
	var builds, runs, encs []float64
	for _, r := range ps.direct {
		runNs += r.runNs
		events += r.events
		builds = append(builds, float64(r.buildNs)/1e6)
		runs = append(runs, float64(r.runNs)/1e6)
		encs = append(encs, float64(r.encNs)/1e3)
	}
	out.set("sim.ns_per_event", float64(runNs)/float64(events))
	out.set("sim.livelocked_specs", float64(ps.livelocked))
	out.set("machine.build_ms", median(builds))
	out.set("machine.run_ms_p50", median(runs))
	out.set("machine.run_ms_p90", tailOrMax(runs, 0.9))
	out.set("machine.encode_us", median(encs))
	out.set("machine.decode_us", median(traced.decUs))
	var hot []*puno.Result
	var hotEvents uint64
	hotLines := 0
	for _, p := range ps.hot {
		hot = append(hot, p.ref.res)
		hotEvents += p.ref.events
		hotLines += p.ref.lines
	}
	out.set("sim.events", float64(hotEvents))
	out.set("mem.lines", float64(hotLines))
	setModelCounts(out, hot)
	zeroLayers(out)

	spans := tr.snapshot()
	out.trace["span_summary"] = summarize(spans)
	out.trace["spans"] = spans
	out.trace["module_cpu_pct"] = shares
	out.trace["top_packages"] = topPackages(samples, 25)
	return nil
}
