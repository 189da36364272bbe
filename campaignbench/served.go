package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"slamgo/internal/campaign"
	"slamgo/internal/serve"
)

// jobSlots is the served job pool size: both overlapping jobs run at
// once.
const jobSlots = 2

// server is an in-process campaign service on a loopback port.
type server struct {
	data string
	m    *serve.Manager
	srv  *http.Server
	base string
	done chan struct{} // closed when Serve has returned
}

func startServer(data string) (*server, error) {
	m, err := serve.NewManager(data, jobSlots, nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{data: data, m: m, srv: &http.Server{Handler: serve.NewServer(m, nil)},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// stop drains the job pool, closes the listener and every connection,
// and waits for the serving goroutine to return.
func (s *server) stop() {
	s.m.Drain()
	s.srv.Close()
	<-s.done
}

// client issues the benchmark's HTTP requests, each timed, counted and
// (when traced) recorded as a span.
type client struct {
	b    *bench
	http *http.Client
	run  string // trace run id; "" records no spans

	mu      sync.Mutex
	samples []reqSample
}

type reqSample struct {
	endpoint string
	latency  time.Duration
}

// do sends one request and returns its body; a transport failure or a
// non-2xx status counts as a failed operation.
func (c *client) do(endpoint, method, url string, body []byte) ([]byte, error) {
	start := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err == nil {
		var resp *http.Response
		resp, err = c.http.Do(req)
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
				err = fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(body)))
			}
		}
	}
	end := time.Now()
	c.b.tr.add(c.run, "serve."+endpoint, 0, start, end)
	c.mu.Lock()
	if err == nil {
		c.samples = append(c.samples, reqSample{endpoint, end.Sub(start)})
	}
	c.mu.Unlock()
	c.count(err == nil)
	return body, err
}

// count tallies one request; clients run on several goroutines.
func (c *client) count(ok bool) {
	c.mu.Lock()
	c.b.tally.request(ok)
	c.mu.Unlock()
}

// jobOutcome is what one client learned following a served job.
type jobOutcome struct {
	id         string
	state      string
	sims, hits int
	report     []byte // JSON report
	finished   time.Time
	err        error
}

// jobStatus is the subset of the service's status JSON the benchmark
// reads.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	EvalSims int    `json:"eval_simulations"`
	EvalHits int    `json:"eval_disk_hits"`
}

// runJob submits spec, follows its event stream until the job ends —
// feeding progress events to obs when non-nil — and fetches its report.
func (c *client) runJob(base string, spec serve.CampaignSpec, obs *stageObserver) jobOutcome {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobOutcome{err: err}
	}
	resp, err := c.do("submit", http.MethodPost, base+"/campaigns", body)
	if err != nil {
		return jobOutcome{err: err}
	}
	var st jobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		return jobOutcome{err: fmt.Errorf("submit response: %w", err)}
	}
	out := jobOutcome{id: st.ID}
	if err := c.follow(base+"/campaigns/"+st.ID+"/events", obs, &out); err != nil {
		out.err = err
		return out
	}
	out.report, out.err = c.do("report", http.MethodGet, base+"/campaigns/"+st.ID+"/report?format=json", nil)
	out.finished = time.Now()
	return out
}

// follow reads a job's server-sent events until the stream ends.
func (c *client) follow(url string, obs *stageObserver, out *jobOutcome) error {
	start := time.Now()
	resp, err := c.http.Get(url)
	if err != nil {
		c.count(false)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.count(false)
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "progress":
				var ev campaign.ProgressEvent
				if err := json.Unmarshal(data, &ev); err == nil && obs != nil {
					obs.observe(ev)
				}
			case "state":
				var st jobStatus
				if err := json.Unmarshal(data, &st); err == nil {
					out.state, out.sims, out.hits = st.State, st.EvalSims, st.EvalHits
				}
			}
		}
	}
	c.b.tr.add(c.run, "serve.follow", 0, start, time.Now())
	c.count(sc.Err() == nil)
	return sc.Err()
}

// jobPhase is one overlapping pair of served jobs on a fresh server.
type jobPhase struct {
	srv      *server
	a, b     jobOutcome
	makespan time.Duration
	allocs   uint64
	cpu      time.Duration
	records  int // distinct evaluation records in the shared store
	obs      *stageObserver
}

// runJobPhase submits job A (the workload spec) and job B (the
// overlapping device pair) at once and waits for both reports.
func (b *bench) runJobPhase(hc *http.Client, srv *server, specA, specB serve.CampaignSpec, obsRun string) jobPhase {
	c := &client{b: b, http: hc, run: obsRun}
	settle()
	before := readRuntime()
	start := time.Now()
	var obs *stageObserver
	if obsRun != "" {
		obs = newStageObserver(b.tr, obsRun, start)
	}
	var ph jobPhase
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ph.a = c.runJob(srv.base, specA, obs) }()
	go func() { defer wg.Done(); ph.b = c.runJob(srv.base, specB, nil) }()
	wg.Wait()
	ph.makespan = time.Since(start)
	after := readRuntime()
	if obs != nil {
		obs.finish(start.Add(ph.makespan))
	}
	ph.srv, ph.obs, ph.allocs, ph.cpu = srv, obs, after.allocs-before.allocs, after.cpu-before.cpu
	ph.records = countRecords(filepath.Join(srv.data, "evalcache"))
	for _, j := range []*jobOutcome{&ph.a, &ph.b} {
		cells, failed, err := reportCells(j.report)
		if j.err == nil {
			j.err = err
		}
		if j.err == nil && j.state != serve.StateDone {
			j.err = fmt.Errorf("job %s ended %q", j.id, j.state)
		}
		b.tally.campaign(campaignCounts{err: j.err != nil, cells: cells, cellsFailed: failed, resolved: j.sims + j.hits})
		b.check(j.err == nil, "served job: %v", j.err)
	}
	return ph
}

// reportCells counts the cells and quarantined cells of a JSON report.
func reportCells(report []byte) (cells, failed int, err error) {
	var rep struct {
		Cells []struct {
			Failed bool `json:"failed"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		return 0, 0, fmt.Errorf("report: %w", err)
	}
	for _, c := range rep.Cells {
		if c.Failed {
			failed++
		}
	}
	return len(rep.Cells), failed, nil
}

// servedCounters are the store counters a served job phase exposes.
type servedCounters struct {
	sims, hits, dups, cellsFailed int
	skew                          time.Duration
}

func (s *servedCounters) add(b *bench) {
	b.add("campaign.cells_failed", float64(s.cellsFailed), "count")
	b.add("evalstore.simulations", float64(s.sims), "count")
	b.add("evalstore.disk_hits", float64(s.hits), "count")
	b.add("evalstore.dup_sims", float64(s.dups), "count")
	b.add("serve.job_skew_s", s.skew.Seconds(), "s")
}

func (ph jobPhase) counters() *servedCounters {
	_, fa, _ := reportCells(ph.a.report)
	_, fb, _ := reportCells(ph.b.report)
	skew := ph.a.finished.Sub(ph.b.finished)
	if skew < 0 {
		skew = -skew
	}
	return &servedCounters{
		sims: ph.a.sims + ph.b.sims, hits: ph.a.hits + ph.b.hits,
		dups:        dupSims([]int{ph.a.sims, ph.b.sims}, ph.records),
		cellsFailed: fa + fb, skew: skew,
	}
}

// serveWorkload drives an in-process service with two job slots. Job
// phase: job A (the workload spec) and job B (odroid-xu3 plus
// desktop-gpu) run at once against one evaluation store, so their
// shared xu3 keys meet concurrent writers and lease waits. Read phase:
// nproc closed-loop clients then hammer the finished jobs' status,
// report, event-replay and idempotent re-submission endpoints.
func serveWorkload(b *bench) {
	specA := campaignSpec(devicesA, b.nproc)
	specB := campaignSpec(devicesB, b.nproc)
	transport := &http.Transport{MaxConnsPerHost: b.nproc, MaxIdleConnsPerHost: b.nproc}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}

	// Set-up is resolving both job specs and starting a server over an
	// empty data directory; every job phase gets its own, and spare
	// starts make the median steady. The directory, with the jobs
	// subdirectory the manager would create, is laid out untimed: its
	// filesystem latency varied fourfold between runs.
	var setups []time.Duration
	start := func(name string) *server {
		data := b.dir(name)
		mustf(os.MkdirAll(filepath.Join(data, "jobs"), 0o755), "laying out the service data directory")
		t := time.Now()
		for _, spec := range []serve.CampaignSpec{specA, specB} {
			_, err := spec.Options()
			mustf(err, "campaign spec")
		}
		srv, err := startServer(data)
		mustf(err, "starting the campaign service")
		setups = append(setups, time.Since(t))
		return srv
	}
	for i := 0; i < setupRepeats-1; i++ {
		start(fmt.Sprintf("serve-setup-%d", i)).stop()
	}

	rt0 := readRuntime()
	var plain, traced []jobPhase
	var last *server
	begin := time.Now()
	for i := 0; i == 0 || time.Since(begin).Seconds() < b.seconds; i++ {
		runs := []string{""}
		if b.traced {
			runs = append(runs, fmt.Sprintf("serve-%d", i))
		}
		for j, obsRun := range runs {
			if last != nil {
				last.stop()
			}
			last = start(fmt.Sprintf("serve-%d-%d", i, j))
			ph := b.runJobPhase(hc, last, specA, specB, obsRun)
			if obsRun == "" {
				plain = append(plain, ph)
			} else {
				traced = append(traced, ph)
			}
		}
	}
	rt1 := readRuntime()
	b.add("setup_s", median(seconds(setups)), "s")
	final := plain[len(plain)-1]
	if b.traced {
		final = traced[len(traced)-1]
	}
	if final.a.err == nil && final.b.err == nil {
		b.readPhase(hc, final, specA, b.traced)
	}
	last.stop()
	for _, ph := range append(plain, traced...) {
		b.check(bytes.Equal(ph.a.report, final.a.report), "job A reports differ between job phases")
	}
	b.checkServed(final, specA)

	// A job phase reports like a campaign: its makespan, both jobs'
	// resolved evaluations, and the process's CPU and heap while it ran.
	asRun := func(ph jobPhase) campaignRun {
		return campaignRun{wall: ph.makespan, resolved: ph.a.sims + ph.a.hits + ph.b.sims + ph.b.hits,
			allocs: ph.allocs, cpu: ph.cpu, obs: ph.obs}
	}
	var pr, tr []campaignRun
	for _, ph := range plain {
		pr = append(pr, asRun(ph))
	}
	for _, ph := range traced {
		tr = append(tr, asRun(ph))
	}
	if !b.traced {
		b.addCampaignMetrics(pr, "job phases")
		ct := final.counters()
		b.add("evalstore.dup_sims", float64(ct.dups), "count")
		b.add("serve.job_skew_s", ct.skew.Seconds(), "s")
		return
	}
	b.addRuntime(rt0, rt1)
	b.addTracedCampaigns(pr, tr, final.counters())
	b.probes(specA, filepath.Join(final.srv.data, "evalcache"))
}

// checkServed proves job A's served report byte-identical, in every
// format, to a direct campaign.Run of the same spec over the service's
// store — which must resolve every evaluation from disk.
func (b *bench) checkServed(ph jobPhase, spec serve.CampaignSpec) {
	if ph.a.err != nil {
		return
	}
	b.checkPinned("served job A", ph.a.report)
	direct := b.runCampaign(spec, stores{
		checkpoint: filepath.Join(b.dir("serve-direct"), "checkpoint"),
		eval:       filepath.Join(ph.srv.data, "evalcache"),
		seq:        filepath.Join(ph.srv.data, "seqcache"),
	}, "")
	if direct.res == nil {
		return
	}
	b.check(direct.res.EvalStats.Simulations == 0, "direct re-run over the served store simulated %d configurations", direct.res.EvalStats.Simulations)
	b.check(bytes.Equal(direct.rep.json, ph.a.report), "served job A JSON report differs from the direct run's")
	for _, f := range []struct {
		format string
		want   []byte
	}{{"csv", direct.rep.csv}, {"table", direct.rep.table}} {
		got, ok := ph.srv.m.Get(ph.a.id).Report(f.format)
		b.check(ok && bytes.Equal(got, f.want), "served job A %s report differs from the direct run's", f.format)
	}
}

// readPhase runs nproc closed-loop clients against the finished jobs
// for a fixed time and reports request throughput and latency.
func (b *bench) readPhase(hc *http.Client, ph jobPhase, specA serve.CampaignSpec, traced bool) {
	run := ""
	if traced {
		run = "read"
	}
	c := &client{b: b, http: hc, run: run}
	submit, err := json.Marshal(specA)
	mustf(err, "encoding the spec")
	base := ph.srv.base
	type op struct {
		endpoint, method, url string
		body, want            []byte
	}
	a, bid := base+"/campaigns/"+ph.a.id, base+"/campaigns/"+ph.b.id
	reportOf := func(format string) []byte {
		rep, _ := ph.srv.m.Get(ph.a.id).Report(format)
		return rep
	}
	mix := []op{
		{"status", http.MethodGet, a, nil, nil},
		{"report", http.MethodGet, a + "/report?format=json", nil, ph.a.report},
		{"status", http.MethodGet, bid, nil, nil},
		{"report", http.MethodGet, a + "/report?format=csv", nil, reportOf("csv")},
		{"events", http.MethodGet, a + "/events", nil, nil},
		{"report", http.MethodGet, a + "/report?format=table", nil, reportOf("table")},
		{"submit", http.MethodPost, base + "/campaigns", submit, nil},
	}
	// The seed orders the mix; each client starts at its own offset.
	rand.New(rand.NewSource(b.seed)).Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	var mismatches sync.Map
	deadline := time.Now().Add(readPhaseDuration(b.seconds))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(deadline); i++ {
				o := mix[i%len(mix)]
				body, err := c.do(o.endpoint, o.method, o.url, o.body)
				if err == nil && o.want != nil && !bytes.Equal(body, o.want) {
					mismatches.Store(o.url, true)
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	mismatches.Range(func(k, _ any) bool {
		b.check(false, "read phase: %v served bytes that differ from the finished report", k)
		return true
	})

	var all []float64
	per := map[string][]float64{}
	for _, s := range c.samples {
		ms := float64(s.latency) / float64(time.Millisecond)
		all = append(all, ms)
		per[s.endpoint] = append(per[s.endpoint], ms)
	}
	b.addNote("req_per_s", float64(len(all))/wall.Seconds(), "1/s", fmt.Sprintf("%d clients, closed loop, %.1fs", b.nproc, wall.Seconds()))
	b.add("req_p50_ms", median(all), "ms")
	if p, v, n, ok := tailPercentile(all, 10); ok {
		b.addNote("req_tail_ms", v, "ms", fmt.Sprintf("p%g of %d requests, %d beyond", p, len(all), n))
	} else {
		b.check(false, "read phase: %d requests are too few for a tail percentile", len(all))
	}
	for _, ep := range []string{"status", "report", "events", "submit"} {
		b.add("serve."+ep+"_ms", median(per[ep]), "ms")
	}
}

// readPhaseDuration bounds the read phase to a fraction of the run.
func readPhaseDuration(runSeconds float64) time.Duration {
	d := time.Duration(runSeconds / 4 * float64(time.Second))
	return min(max(d, 2*time.Second), 5*time.Second)
}
