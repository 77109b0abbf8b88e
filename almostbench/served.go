package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/core"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/netio"
	"github.com/nyu-secml/almost/internal/service"
)

// served-mix: an in-process almostd with a 2-slot pool and two
// closed-loop clients, one connection each. Jobs follow the 40-job
// cycle of the repository's soak harness (service.Soak): one long job
// asking for more slots than its neighbours, 12 scope attacks and 27
// short lock jobs. Here the long job is a satattack on an rll,antisat
// chain (c432, 24 bits: ~66 DIPs on one incremental miter) that asks
// for the whole pool, so the short jobs queue behind it; the scope
// attacks run on RLL-32 c1908 and the lock jobs lock c7552 with 64-bit
// rll,mux keys, all with seeded parameters. Soak's long job is a smoke
// hardening, whose cost swings 2-8 s with its seed; at 32 bits the
// satattack takes ~260 DIPs and ~3 s. Either would let the few long
// jobs that fit in a run set its pace alone.
const (
	poolSize = 2
	clients  = 2
	// cycleLen is the period of the job kinds, as in service.Soak.
	cycleLen = 40
	// servedTraceJobs is the fixed job count of a traced run.
	servedTraceJobs = cycleLen
	// scopePool and satPool are how many distinct locked netlists the
	// attack jobs draw from.
	scopePool = 8
	satPool   = 4
)

type jobKind int

const (
	jobLock jobKind = iota
	jobScope
	jobSAT
)

// kindOf is the kind of job i: service.Soak's split of its 40-job
// cycle, with the satattack in the place of Soak's hardening.
func kindOf(i int) jobKind {
	switch r := i % cycleLen; {
	case r == 0:
		return jobSAT
	case r <= 12:
		return jobScope
	}
	return jobLock
}

// attackInput is a locked netlist served inline to attack jobs.
type attackInput struct {
	locked *aig.AIG
	key    lock.Key
	text   string
}

type servedInst struct {
	seed   int64
	design *aig.AIG // the hardening circuit
	scope  []attackInput
	sat    []attackInput
	srv    *server
}

func lockInput(ctx context.Context, circuit string, keySize int, lockers []string, seed int64) (attackInput, error) {
	g, err := loadDesign(circuit)
	if err != nil {
		return attackInput{}, err
	}
	locked, key, err := core.LockWithCtx(ctx, g, keySize, lockers, rand.New(rand.NewSource(seed)))
	if err != nil {
		return attackInput{}, err
	}
	text, err := netio.WriteBenchString(locked)
	if err != nil {
		return attackInput{}, err
	}
	return attackInput{locked: locked, key: key, text: text}, nil
}

func setupServed(ctx context.Context, seed int64) (instance, error) {
	design, err := loadDesign(hardenCircuit)
	if err != nil {
		return nil, err
	}
	si := &servedInst{seed: seed, design: design}
	for j := 0; j < scopePool; j++ {
		in, err := lockInput(ctx, "c1908", 32, nil, subSeed(seed, -1-j))
		if err != nil {
			return nil, err
		}
		si.scope = append(si.scope, in)
	}
	for j := 0; j < satPool; j++ {
		in, err := lockInput(ctx, "c432", 24, []string{"rll", "antisat"}, subSeed(seed, -100-j))
		if err != nil {
			return nil, err
		}
		si.sat = append(si.sat, in)
	}
	if si.srv, err = startServer(ctx); err != nil {
		return nil, err
	}
	return si, nil
}

func (si *servedInst) close() { si.srv.close() }

// job returns the kind and spec of job i.
func (si *servedInst) job(i int) (jobKind, service.JobSpec) {
	s := subSeed(si.seed, i)
	kind := kindOf(i)
	switch kind {
	case jobLock:
		return kind, lockJobSpec(s)
	case jobScope:
		in := si.scope[s%scopePool]
		return kind, service.JobSpec{Kind: service.KindAttack, Netlist: in.text, Format: "bench",
			Key: in.key.String(), Attacks: []string{"scope"}}
	case jobSAT:
		in := si.sat[(i/cycleLen)%satPool]
		return kind, service.JobSpec{Kind: service.KindAttack, Netlist: in.text, Format: "bench",
			Key: in.key.String(), Attacks: []string{"satattack"}, Parallelism: poolSize}
	}
	panic(fmt.Sprintf("job kind %d", kind))
}

func lockJobSpec(seed int64) service.JobSpec {
	return service.JobSpec{Kind: service.KindLock, Circuit: "c7552", KeySize: 64,
		Lockers: []string{"rll", "mux"}, Seed: seed}
}

// server is an in-process almostd on a loopback listener.
type server struct {
	sched   *service.Scheduler
	http    *http.Server
	clients []*service.Client
	trans   []*http.Transport
	done    chan struct{}
}

func startServer(ctx context.Context) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{sched: service.NewScheduler(ctx, service.SchedulerConfig{PoolSize: poolSize}), done: make(chan struct{})}
	s.http = &http.Server{Handler: service.NewServer(s.sched)}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	for c := 0; c < clients; c++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		s.trans = append(s.trans, tr)
		s.clients = append(s.clients, service.NewClientHTTP(ln.Addr().String(), &http.Client{Transport: tr}))
	}
	if err := s.clients[0].Healthz(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *server) close() {
	for _, tr := range s.trans {
		tr.CloseIdleConnections()
	}
	s.http.Close()
	<-s.done
	s.sched.Close()
}

// jobRecord is one served job as its client saw it.
type jobRecord struct {
	i       int
	kind    jobKind
	spec    service.JobSpec
	result  *service.JobResult // dropped by serve once digested
	digest  string             // of the result's JSON encoding
	err     error
	latency float64 // submit → result, seconds
	// Service-layer timings, milliseconds: the Submit round trip, the
	// wait from submit until the running state event, and running until
	// the terminal event.
	submitMs, queueMs, runMs float64
	events                   int
	resultBytes              int
}

// serveJob submits spec on client c and waits for its result.
func serveJob(ctx context.Context, c *service.Client, spec service.JobSpec) *jobRecord {
	jr := &jobRecord{spec: spec}
	t0 := time.Now()
	id, err := c.Submit(ctx, spec)
	if err != nil {
		jr.err = err
		return jr
	}
	t1 := time.Now()
	running := t1
	res, err := c.Wait(ctx, id, func(ev service.StreamEvent) error {
		jr.events++
		if ev.Type == service.StreamStateChange && ev.State == service.StateRunning {
			running = time.Now()
		}
		return nil
	})
	t2 := time.Now()
	if err != nil {
		jr.err = fmt.Errorf("job %s: %w", id, err)
		return jr
	}
	body, err := json.Marshal(res)
	if err != nil {
		jr.err = err
		return jr
	}
	jr.result, jr.digest, jr.resultBytes = res, digest(string(body)), len(body)
	jr.latency = t2.Sub(t0).Seconds()
	jr.submitMs, jr.queueMs, jr.runMs = ms(t1.Sub(t0)), ms(running.Sub(t1)), ms(t2.Sub(running))
	return jr
}

// serve runs jobs first, first+1, ... on both clients until next
// returns false, and returns the records in job order.
func (si *servedInst) serve(ctx context.Context, next func(i int) bool) []*jobRecord {
	var (
		mu   sync.Mutex
		recs []*jobRecord
		i    int
		wg   sync.WaitGroup
	)
	for _, c := range si.srv.clients {
		wg.Add(1)
		go func(c *service.Client) {
			defer wg.Done()
			for {
				mu.Lock()
				j := i
				ok := next(j)
				i++
				mu.Unlock()
				if !ok {
					return
				}
				kind, spec := si.job(j)
				jr := serveJob(ctx, c, spec)
				// Keep the digest only: holding every result would make the
				// run's memory grow with its throughput.
				jr.i, jr.kind, jr.result = j, kind, nil
				mu.Lock()
				recs = append(recs, jr)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ordered := make([]*jobRecord, len(recs))
	for _, jr := range recs {
		ordered[jr.i] = jr
	}
	return ordered
}

func (si *servedInst) run(ctx context.Context, d time.Duration) (*runResult, error) {
	deadline := time.Now().Add(d)
	recs := si.serve(ctx, func(int) bool { return time.Now().Before(deadline) })
	res := &runResult{}
	for _, jr := range recs {
		if jr.err != nil {
			res.failed++
			continue
		}
		res.done++
		res.opSeconds = append(res.opSeconds, jr.latency)
		switch jr.kind {
		case jobLock:
			res.lockSeconds = append(res.lockSeconds, jr.latency)
		case jobScope, jobSAT:
			res.attackSeconds = append(res.attackSeconds, jr.latency)
		}
	}
	res.check = func(ctx context.Context, det *detStore) []string { return si.check(ctx, recs, det, "", nil) }
	return res, nil
}

// check verifies served jobs after the timed part: every result must be
// byte-identical to service.RunSpec on the same spec (each distinct
// spec runs once). Jobs that failed to run are skipped; the caller
// counts them. When sat is not nil, the distinct satattack inputs
// are collected there: the traced run checks that the attack is Exact
// on each while timing it.
func (si *servedInst) check(ctx context.Context, recs []*jobRecord, det *detStore, prefix string, sat *[]satInput) []string {
	var problems []string
	direct := map[string]string{}
	satDone := map[string]bool{}
	for _, jr := range recs {
		if jr.err != nil {
			continue // counted where the job ran
		}
		key, _ := json.Marshal(jr.spec)
		want, ok := direct[string(key)]
		if !ok {
			res, err := service.RunSpec(ctx, jr.spec, 1, nil)
			if err != nil {
				problems = append(problems, fmt.Sprintf("job %d: direct run: %v", jr.i, err))
				continue
			}
			body, err := json.Marshal(res)
			if err != nil {
				problems = append(problems, err.Error())
				continue
			}
			want = digest(string(body))
			direct[string(key)] = want
		}
		if jr.digest != want {
			problems = append(problems, fmt.Sprintf("job %d: served result differs from service.RunSpec", jr.i))
		}
		det.record(fmt.Sprintf("%sjob%d", prefix, jr.i), jr.digest)
		if jr.kind == jobSAT && sat != nil && !satDone[jr.spec.Netlist] {
			satDone[jr.spec.Netlist] = true
			in := si.sat[(jr.i/cycleLen)%satPool]
			*sat = append(*sat, satInput{locked: in.locked, key: in.key})
		}
	}
	return problems
}

func (si *servedInst) trace(ctx context.Context, det *detStore) (*traceResult, error) {
	tr := &traceResult{metrics: map[string]metric{}}
	fixed := func(i int) bool { return i < servedTraceJobs }
	plainStart := time.Now()
	plain := si.serve(ctx, fixed)
	plainS := time.Since(plainStart).Seconds()
	tracedStart := time.Now()
	traced := si.serve(ctx, fixed)
	tracedS := time.Since(tracedStart).Seconds()
	tr.attempted = len(plain) + len(traced)
	tr.metrics["trace.overhead_ratio"] = metric{tracedS / plainS, "ratio"}
	for _, recs := range [][]*jobRecord{plain, traced} {
		for _, jr := range recs {
			if jr.err != nil {
				tr.failed++
				tr.problems = append(tr.problems, jr.err.Error())
			}
		}
	}
	for i := range traced {
		a, b := plain[i], traced[i]
		if a.err != nil || b.err != nil {
			continue
		}
		if a.digest != b.digest {
			tr.failed++
			tr.problems = append(tr.problems, fmt.Sprintf("job %d: traced result differs from untraced", i))
		}
	}
	var sats []satInput
	problems := si.check(ctx, traced, det, "trace/", &sats)
	tr.failed += len(problems)
	tr.problems = append(tr.problems, problems...)
	return tr, traceHardening(ctx, tr, si.design, si.seed, si.srv, traced, sats, det)
}

// serviceMetrics reports the service layer from served job records.
func serviceMetrics(m map[string]metric, recs []*jobRecord) {
	var submit, queue, run, events, kb []float64
	for _, jr := range recs {
		if jr.err != nil {
			continue
		}
		submit = append(submit, jr.submitMs)
		queue = append(queue, jr.queueMs)
		run = append(run, jr.runMs)
		events = append(events, float64(jr.events))
		kb = append(kb, float64(jr.resultBytes)/1024)
	}
	m["service.submit_ms_p50"] = metric{median(submit), "ms"}
	m["service.queue_wait_ms_p50"] = metric{median(queue), "ms"}
	m["service.queue_wait_ms_tail"] = metric{tail(queue), "ms"}
	m["service.run_ms_p50"] = metric{median(run), "ms"}
	m["service.stream_events"] = metric{mean(events), "count"}
	m["service.result_kb_p50"] = metric{median(kb), "KiB"}
}
