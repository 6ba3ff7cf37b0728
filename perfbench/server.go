package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"astrx/internal/astrx"
	"astrx/internal/bench"
	"astrx/internal/netlist"
	"astrx/internal/rescache"
	"astrx/internal/server"
	"astrx/internal/trace"
)

// The oblxd-mixed load: an open loop offering oblxdRate submissions a
// second, one in oblxdColdEvery of them a cold job (a fresh seed, so the
// result cache misses and a worker anneals it) and the rest repeats of
// the warmed keys, which the cache serves. The rate is a constant, so two
// commits are offered the same load: 1.6 cold jobs a second, about a
// quarter of the ~6.5 a second two workers drain when cold jobs arrive
// at once. At half that capacity the hits' median latency swung by 2x
// between runs: it sat on the edge between hits that arrive while a
// worker is idle and hits that arrive while both keep the cores busy.
const (
	oblxdRate      = 8.0
	oblxdColdEvery = 5
	oblxdMoves     = 1000
	// oblxdWarmMoves is the budget of the warmed keys: they only need to
	// be in the cache, so set-up anneals them briefly.
	oblxdWarmMoves = 300
	// oblxdPollEvery is how often the generator polls unfinished jobs.
	oblxdPollEvery = 10 * time.Millisecond
	// oblxdDrain bounds how long unfinished jobs are waited for once the
	// schedule has been sent.
	oblxdDrain = 30 * time.Second
	// oblxdTraceHits caps the hits whose span trees a traced run fetches.
	oblxdTraceHits = 40
)

// oblxdDecks are the decks of the load: the two smallest Table 2
// circuits, so a cold job takes a fraction of a second.
var oblxdDecks = []bench.Circuit{bench.SimpleOTA, bench.OTA}

// oblxdWarmSeeds are the anneal seeds of the warmed keys, per deck.
var oblxdWarmSeeds = []int64{1, 2}

// jobKey is one (deck, options) submission.
type jobKey struct {
	deck  int
	seed  int64
	moves int
}

func (k jobKey) options() server.JobOptions {
	return server.JobOptions{Seed: k.seed, MaxMoves: k.moves, NoFreeze: true}
}

// daemon is one in-process oblxd: a Manager with a state dir and a
// read-write result cache behind an httptest server, and a client
// limited to two connections.
type daemon struct {
	dir    string
	fs     *countingFS
	cache  *rescache.Cache
	m      *server.Manager
	ts     *httptest.Server
	client *http.Client
	decks  []string
	// golden is each warmed key's cold result, without its job ID.
	golden map[jobKey]map[string]any
}

func startDaemon(tr *Tracer, sampleEvery int) (*daemon, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "oblxd-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, fs: newCountingFS(), golden: map[jobKey]map[string]any{}}
	d.cache, err = rescache.New(rescache.Options{Mode: rescache.RW, Dir: filepath.Join(dir, "cache"), FS: d.fs})
	if err != nil {
		d.close()
		return nil, err
	}
	d.m, err = server.New(server.Options{StateDir: filepath.Join(dir, "state"), Workers: 2,
		Cache: d.cache, TelemetrySampleEvery: sampleEvery, FS: d.fs})
	if err != nil {
		d.close()
		return nil, err
	}
	d.ts = httptest.NewServer(d.m.Handler())
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	for _, c := range oblxdDecks {
		src := bench.DeckSource(c)
		sp := tr.Begin("netlist.Parse", "netlist", -1)
		deck, err := netlist.Parse(src)
		tr.End(sp)
		if err != nil {
			d.close()
			return nil, err
		}
		sp = tr.Begin("astrx.Compile", "astrx", -1)
		_, err = astrx.Compile(deck, astrx.CostOptions{})
		tr.End(sp)
		if err != nil {
			d.close()
			return nil, err
		}
		d.decks = append(d.decks, src)
	}
	if err := d.warmUp(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// warmUp runs every warmed key cold, keeps its result, and waits until
// the cache holds every result: the daemon publishes a job's terminal
// state before it stores the result in the cache, and a repeat that
// arrives in between runs cold again.
func (d *daemon) warmUp() error {
	warm := warmKeys()
	ids := map[jobKey]string{}
	for _, k := range warm {
		st, _, err := d.submit(k)
		if err != nil {
			return fmt.Errorf("warm submit: %w", err)
		}
		ids[k] = st.ID
	}
	deadline := time.Now().Add(oblxdDrain)
	for _, k := range warm {
		for {
			st, err := d.status(ids[k])
			if err != nil {
				return err
			}
			if st.State == server.StateDone {
				break
			}
			if st.Finished != nil {
				return fmt.Errorf("warm job %s ended %s: %s", st.ID, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("warm job %s not done after %s", st.ID, oblxdDrain)
			}
			time.Sleep(oblxdPollEvery)
		}
		res, err := d.result(ids[k])
		if err != nil {
			return err
		}
		d.golden[k] = res
	}
	for d.cache.Len() < len(warm) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d warm results cached after %s", d.cache.Len(), len(warm), oblxdDrain)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (d *daemon) close() {
	if d.ts != nil {
		d.ts.Close()
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if d.m != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		d.m.Shutdown(ctx) //nolint:errcheck // a timed-out shutdown leaves only the temp dir behind, removed below
		cancel()
	}
	os.RemoveAll(d.dir)
}

// submit POSTs k and returns the job status and the round-trip time.
func (d *daemon) submit(k jobKey) (*server.Status, time.Duration, error) {
	body, err := json.Marshal(map[string]any{"deck": d.decks[k.deck], "options": k.options()})
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	resp, err := d.client.Post(d.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	var st server.Status
	err = decodeResponse(resp, &st)
	return &st, time.Since(t0), err
}

func (d *daemon) status(id string) (*server.Status, error) {
	var st server.Status
	return &st, d.get("/v1/jobs/"+id, &st)
}

// result fetches a job's result as generic JSON without the fields two
// runs of the same (deck, options) may differ in: the job ID and the
// run's wall-clock timing. What is left — design, costs, spec values,
// verification, run statistics — must be identical.
func (d *daemon) result(id string) (map[string]any, error) {
	var res map[string]any
	if err := d.get("/v1/jobs/"+id+"/result", &res); err != nil {
		return nil, err
	}
	delete(res, "id")
	if r, ok := res["result"].(map[string]any); ok {
		for _, k := range []string{"duration_ns", "time_per_eval_ns", "evals_per_sec"} {
			delete(r, k)
		}
	}
	return res, nil
}

func (d *daemon) get(path string, v any) error {
	resp, err := d.client.Get(d.ts.URL + path)
	if err != nil {
		return err
	}
	return decodeResponse(resp, v)
}

func decodeResponse(resp *http.Response, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// mixedOp is one scheduled submission.
type mixedOp struct {
	key  jobKey
	cold bool
}

// mixedSchedule generates the load for seed: due times spaced 1/rate
// apart with up to half a gap of jitter, every oblxdColdEvery-th a cold
// job, the rest hits on random warm keys. The cold jobs are the same
// fresh seeds in the same order in every run (both decks in turn): one
// cold job's time varies 10x with its trajectory (45 ms to 650 ms at
// 1000 moves), and which long jobs overlapped changed the cold median by
// 20% between workload seeds.
func mixedSchedule(seed int64, seconds float64, warm []jobKey) ([]time.Duration, []mixedOp) {
	rng := rand.New(rand.NewSource(seed))
	n := int(seconds * oblxdRate)
	nCold := n / oblxdColdEvery
	pool := make([]jobKey, nCold)
	for i := range pool {
		pool[i] = jobKey{i % len(oblxdDecks), 1000 + int64(i), oblxdMoves}
	}
	gap := time.Duration(float64(time.Second) / oblxdRate)
	dues := make([]time.Duration, n)
	ops := make([]mixedOp, n)
	for i := range ops {
		dues[i] = time.Duration(i)*gap + time.Duration(rng.Int63n(int64(gap/2)))
		if i%oblxdColdEvery == oblxdColdEvery-1 {
			ops[i] = mixedOp{pool[0], true}
			pool = pool[1:]
		} else {
			ops[i] = mixedOp{warm[rng.Intn(len(warm))], false}
		}
	}
	return dues, ops
}

// jobRecord is one scheduled job's outcome.
type jobRecord struct {
	op     mixedOp
	id     string
	due    time.Time
	sent   time.Time
	rtt    time.Duration
	hit    bool      // served from the cache
	seen   time.Time // when the client first saw it terminal
	state  server.State
	errMsg string
}

// mixedPass is one open-loop pass against a daemon.
type mixedPass struct {
	jobs       []*jobRecord
	start, end time.Time // first due time; last job seen terminal
	backlog    int
	// Bytes written and device flushes asked for during the pass.
	bytes, syncs int64
}

// passMixed offers the schedule to d, polls unfinished jobs until they
// are terminal, then checks every job's outcome.
func passMixed(d *daemon, dues []time.Duration, ops []mixedOp, rep *report) *mixedPass {
	p := &mixedPass{}
	bytes0, syncs0 := d.fs.bytes.Load(), d.fs.syncs.Load()
	pending := map[*jobRecord]bool{}
	lastPoll := time.Time{}
	poll := func() {
		lastPoll = time.Now()
		for j := range pending {
			st, err := d.status(j.id)
			now := time.Now()
			if err != nil {
				j.state, j.errMsg, j.seen = server.StateFailed, err.Error(), now
				delete(pending, j)
				continue
			}
			if st.Finished != nil {
				j.state, j.errMsg, j.seen = st.State, st.Error, now
				delete(pending, j)
			}
		}
	}
	idle := func(until time.Time) {
		if len(pending) > 0 && time.Since(lastPoll) >= oblxdPollEvery {
			poll()
			return
		}
		next := until
		if len(pending) > 0 && lastPoll.Add(oblxdPollEvery).Before(next) {
			next = lastPoll.Add(oblxdPollEvery)
		}
		sleepUntil(next)
	}
	p.start = time.Now().Add(50 * time.Millisecond)
	fire := func(i int) {
		j := &jobRecord{op: ops[i], due: p.start.Add(dues[i]), sent: time.Now()}
		p.jobs = append(p.jobs, j)
		st, rtt, err := d.submit(ops[i].key)
		j.rtt = rtt
		if err != nil {
			j.state, j.errMsg, j.seen = server.StateFailed, err.Error(), time.Now()
			return
		}
		j.id, j.hit = st.ID, st.CacheHit
		if st.Finished != nil {
			j.state, j.errMsg, j.seen = st.State, st.Error, time.Now()
			return
		}
		pending[j] = true
	}
	openLoop(p.start, dues, fire, idle)
	p.backlog = d.m.QueueDepth()
	deadline := time.Now().Add(oblxdDrain)
	for len(pending) > 0 && time.Now().Before(deadline) {
		sleepUntil(lastPoll.Add(oblxdPollEvery))
		poll()
	}
	for _, j := range p.jobs {
		if j.seen.After(p.end) {
			p.end = j.seen
		}
	}
	p.bytes, p.syncs = d.fs.bytes.Load()-bytes0, d.fs.syncs.Load()-syncs0
	p.check(d, pending, rep)
	return p
}

// check counts failures: a failed request or job, a job not terminal
// after the drain, and a cache hit whose result differs from the cold
// run of the same key.
func (p *mixedPass) check(d *daemon, pending map[*jobRecord]bool, rep *report) {
	for _, j := range p.jobs {
		rep.attempted++
		switch {
		case pending[j]:
			rep.fail("job %s not terminal %s after the schedule", j.id, oblxdDrain)
		case j.state != server.StateDone:
			rep.fail("job %s ended %s: %s", j.id, j.state, j.errMsg)
		case !j.op.cold:
			res, err := d.result(j.id)
			if err != nil {
				rep.fail("job %s result: %v", j.id, err)
			} else if !reflect.DeepEqual(res, d.golden[j.op.key]) {
				rep.fail("job %s (cache hit %v) result differs from the cold result of its key", j.id, j.hit)
			}
		}
	}
}

// latencySum is the summed latency of the pass's finished jobs, in ms.
func (p *mixedPass) latencySum() float64 {
	cold, hit := p.latencies()
	var sum float64
	for _, ms := range append(cold, hit...) {
		sum += ms
	}
	return sum
}

// latencies returns the due-to-terminal times of the cold jobs and of
// the repeats, in ms.
func (p *mixedPass) latencies() (cold, hit []float64) {
	for _, j := range p.jobs {
		if j.state != server.StateDone {
			continue
		}
		ms := j.seen.Sub(j.due).Seconds() * 1e3
		if j.op.cold {
			cold = append(cold, ms)
		} else {
			hit = append(hit, ms)
		}
	}
	return cold, hit
}

func runOblxd(ctx context.Context, cfg config, rep *report) error {
	if !cfg.trace {
		d, setupTimes, err := repeatSetup(9, func() (*daemon, error) { return startDaemon(nil, -1) }, (*daemon).close)
		if err != nil {
			return err
		}
		defer d.close()
		dues, ops := mixedSchedule(cfg.seed, cfg.seconds, warmKeys())
		p := passMixed(d, dues, ops, rep)
		cold, hit := p.latencies()
		all := append(append([]float64(nil), cold...), hit...)
		rep.set("setup_s", median(setupTimes), "s")
		rep.set("work_per_s", float64(len(all))/p.end.Sub(p.start).Seconds(), "1/s")
		rep.set("op_p50_ms", median(all), "ms")
		rep.set("op_p90_ms", percentile(all, 90), "ms")
		rep.set("job_cold_p50_s", median(cold)/1e3, "s")
		rep.set("job_cold_p90_s", percentile(cold, 90)/1e3, "s")
		rep.set("job_hit_p50_ms", median(hit), "ms")
		rep.set("job_hit_p90_ms", percentile(hit, 90), "ms")
		setJobCounts(rep, cold, hit)
		return nil
	}

	// Traced run: the first half of the schedule untraced, then the
	// same half on a fresh daemon with stage timing on every eval and
	// the job span trees fetched after the drain.
	dues, ops := mixedSchedule(cfg.seed, cfg.seconds/2, warmKeys())
	d, err := startDaemon(nil, -1)
	if err != nil {
		return err
	}
	plain := passMixed(d, dues, ops, rep)
	d.close()
	setupTr := newTracer()
	d, err = startDaemon(setupTr, 1)
	if err != nil {
		return err
	}
	defer d.close()
	p := passMixed(d, dues, ops, rep)
	tr := newTracer()
	traced, err := p.spans(d, tr, rep)
	if err != nil {
		return err
	}
	setTraceMetrics(rep, tr, traced, p.latencySum()/plain.latencySum()-1)
	setSetupMetrics(rep, setupTr)
	return tr.WriteJSONL(cfg.traceOut)
}

// warmKeys lists the keys set-up warms: every deck at every warm seed.
func warmKeys() []jobKey {
	var ks []jobKey
	for i := range oblxdDecks {
		for _, s := range oblxdWarmSeeds {
			ks = append(ks, jobKey{i, s, oblxdWarmMoves})
		}
	}
	return ks
}

// spans fetches the span trees of the cold jobs and of up to
// oblxdTraceHits hits, records each job as a span tree in tr — the
// generator's lateness, the HTTP call, the server's submit, queue-wait
// and anneal spans with the job's eval-stage totals, and the rest of
// the server's job span after the anneal — and sets the server-side
// per-layer metrics. It returns the summed job latency, the wall time
// the layer shares are taken of.
func (p *mixedPass) spans(d *daemon, tr *Tracer, rep *report) (time.Duration, error) {
	var submitHit, submitCold, rttHit, queue, anneal, finish []float64
	stages := newStageTotals()
	var total time.Duration
	hits, hitsTraced, served := 0, 0, 0
	var lags []float64
	for _, j := range p.jobs {
		lags = append(lags, j.sent.Sub(j.due).Seconds()*1e3)
		if !j.op.cold {
			hits++
			if j.hit {
				served++
			}
			rttHit = append(rttHit, j.rtt.Seconds()*1e3)
		}
		if j.state != server.StateDone || (!j.op.cold && hitsTraced >= oblxdTraceHits) {
			continue
		}
		var sum server.TraceSummary
		if err := d.get("/v1/jobs/"+j.id+"/trace", &sum); err != nil {
			return 0, err
		}
		var spans []trace.Span
		flatten(sum.Tree, &spans)
		root := tr.Add("job", "bench", -1, j.due, j.seen)
		total += j.seen.Sub(j.due)
		tr.Add("gen.lag", "gen", root, j.due, j.sent)
		call := tr.Add("POST /v1/jobs", "http", root, j.sent, j.sent.Add(j.rtt))
		var annealEnd time.Time
		for _, s := range spans {
			end := s.Start.Add(time.Duration(s.DurationNS))
			switch s.Name {
			case "submit":
				tr.Add("server.submit", "server", call, s.Start, end)
				if j.op.cold {
					submitCold = append(submitCold, float64(s.DurationNS)/1e6)
				} else {
					submitHit = append(submitHit, float64(s.DurationNS)/1e6)
				}
			case "queue-wait":
				tr.Add("server.queue-wait", "server", root, s.Start, end)
				queue = append(queue, float64(s.DurationNS)/1e6)
			case "anneal":
				sp := tr.Add("oblx.anneal", "oblx", root, s.Start, end)
				anneal = append(anneal, float64(s.DurationNS)/1e9)
				annealEnd = end
				var tel server.TelemetrySummary
				if err := d.get("/v1/jobs/"+j.id+"/telemetry", &tel); err != nil {
					return 0, err
				}
				stages.add(tel.Stages)
				attachStages(tr, sp, tel.Stages)
			}
		}
		for _, s := range spans {
			if s.Name == "job" && !annealEnd.IsZero() {
				end := s.Start.Add(time.Duration(s.DurationNS))
				tr.Add("server.finish", "server", root, annealEnd, end)
				finish = append(finish, end.Sub(annealEnd).Seconds()*1e3)
			}
		}
		if !j.op.cold {
			hitsTraced++
		}
	}
	cold, hit := p.latencies()
	setJobCounts(rep, cold, hit)
	rep.set("server.submit_ms.hit", mean(submitHit), "ms")
	rep.set("server.submit_ms.cold", mean(submitCold), "ms")
	rep.set("http.rtt_ms.hit", mean(rttHit), "ms")
	rep.set("server.queue_wait_ms", mean(queue), "ms")
	rep.set("oblx.anneal_s", mean(anneal), "s")
	rep.set("server.finish_ms", mean(finish), "ms")
	rep.set("server.backlog_end", float64(p.backlog), "count")
	rep.set("gen.lag_p90_ms", percentile(lags, 90), "ms")
	rep.set("rescache.hit_frac", float64(served)/math.Max(float64(hits), 1), "frac")
	rep.set("durable.bytes_per_job", float64(p.bytes)/math.Max(float64(len(p.jobs)), 1), "B")
	rep.set("durable.syncs_per_job", float64(p.syncs)/math.Max(float64(len(p.jobs)), 1), "count")
	stages.report(rep)
	return total, nil
}

// setJobCounts sets the sample counts of the cold and hit latencies and
// the hits' tail: the highest percentile with ten samples beyond it.
func setJobCounts(rep *report, cold, hit []float64) {
	rep.set("job_cold.n", float64(len(cold)), "count")
	rep.set("job_hit.n", float64(len(hit)), "count")
	p := tailPercentile(len(hit))
	rep.set("job_hit.tail_pct", p, "pct")
	if p > 0 {
		rep.set("job_hit.tail_ms", percentile(hit, p), "ms")
	}
}

// flatten lists every span of a span tree.
func flatten(nodes []*trace.Node, out *[]trace.Span) {
	for _, n := range nodes {
		*out = append(*out, n.Span)
		flatten(n.Children, out)
	}
}
