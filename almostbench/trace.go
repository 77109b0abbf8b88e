package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/attack/omla"
	"github.com/nyu-secml/almost/internal/attack/satattack"
	"github.com/nyu-secml/almost/internal/core"
	"github.com/nyu-secml/almost/internal/engine"
	"github.com/nyu-secml/almost/internal/gnn"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/netio"
	"github.com/nyu-secml/almost/internal/subgraph"
	"github.com/nyu-secml/almost/internal/synth"
)

// counts are the deterministic per-hardening counts of a traced run.
type counts struct{ epochs, advIters, searchIters int }

func (c counts) String() string { return fmt.Sprint(c.epochs, c.advIters, c.searchIters) }

func coreCounts(h *hardening) counts {
	var c counts
	for _, se := range h.events {
		switch se.ev.Phase {
		case core.PhaseTrain:
			c.epochs++
		case core.PhaseAdvSearch:
			c.advIters++
		case core.PhaseSearch:
			c.searchIters++
		}
	}
	return c
}

// coreMetrics reports the core stages of a traced hardening.
// Adversarial-search time is the sum of the intervals that end in an
// Eq. 3 iteration event; search iterations are timed between
// consecutive Eq. 1 events.
func coreMetrics(m map[string]metric, h *hardening) {
	c := coreCounts(h)
	var advS float64
	var iterMs []float64
	prev := h.trainStart
	for _, se := range h.events {
		switch se.ev.Phase {
		case core.PhaseAdvSearch:
			advS += se.at.Sub(prev).Seconds()
		case core.PhaseSearch:
			if prev.Before(h.searchStart) {
				prev = h.searchStart
			}
			iterMs = append(iterMs, ms(se.at.Sub(prev)))
		}
		prev = se.at
	}
	m["core.lock_ms"] = metric{h.lockS * 1e3, "ms"}
	m["core.train_s"] = metric{h.trainS, "s"}
	m["core.train_epochs"] = metric{float64(c.epochs), "count"}
	m["core.adv_search_s"] = metric{advS, "s"}
	m["core.adv_search_iters"] = metric{float64(c.advIters), "count"}
	m["core.search_s"] = metric{h.searchS, "s"}
	m["core.search_iters"] = metric{float64(c.searchIters), "count"}
	m["core.search_iter_p50_ms"] = metric{median(iterMs), "ms"}
	m["core.final_synth_ms"] = metric{h.synthS * 1e3, "ms"}
}

// observedRecipes returns the distinct recipes the hardening's observer
// reported, in order, ending with S_ALMOST.
func observedRecipes(h *hardening) []synth.Recipe {
	var rs []synth.Recipe
	seen := map[string]bool{}
	add := func(r synth.Recipe) {
		if len(r) == 0 || seen[r.String()] {
			return
		}
		seen[r.String()] = true
		rs = append(rs, r)
	}
	for _, se := range h.events {
		add(se.ev.Recipe)
		add(se.ev.Best)
	}
	add(h.recipe)
	return rs
}

// satInput is a locked netlist the satattack layer is measured on.
type satInput struct {
	locked *aig.AIG
	key    lock.Key
}

func stepName(s synth.Step) string { return strings.ReplaceAll(s.String(), " -", "_") }

// timeN runs fn n times and returns the median wall time.
func timeN(n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}

// replayLayers replays a traced hardening through each layer's public
// entry points and adds the per-layer metrics.
func replayLayers(ctx context.Context, tr *traceResult, h *hardening, sats []satInput, det *detStore) error {
	m := tr.metrics
	var layerCounts []string

	// synth: every observed recipe, plus each step once, step by step on
	// one arena.
	type stepStat struct {
		calls  int
		ms     float64
		allocs uint64
	}
	stats := map[synth.Step]*stepStat{}
	for _, s := range synth.AllSteps() {
		stats[s] = &stepStat{}
	}
	arena := synth.NewArena()
	var ms0, ms1 runtime.MemStats
	observed := observedRecipes(h)
	rs := append([]synth.Recipe(nil), observed...)
	for _, s := range synth.AllSteps() {
		rs = append(rs, synth.Recipe{s})
	}
	for _, rc := range rs {
		g := h.locked
		for _, s := range rc {
			runtime.ReadMemStats(&ms0)
			t := time.Now()
			out := s.Run(g, arena)
			d := time.Since(t)
			runtime.ReadMemStats(&ms1)
			st := stats[s]
			st.calls++
			st.ms += ms(d)
			st.allocs += ms1.Mallocs - ms0.Mallocs
			if g != h.locked {
				arena.Recycle(g)
			}
			g = out
		}
		if g != h.locked {
			arena.Recycle(g)
		}
	}
	for _, s := range synth.AllSteps() {
		st, n := stats[s], stepName(s)
		m["synth."+n+".calls"] = metric{float64(st.calls), "count"}
		m["synth."+n+".ms"] = metric{st.ms / float64(st.calls), "ms"}
		m["synth."+n+".allocs"] = metric{float64(st.allocs) / float64(st.calls), "count"}
		layerCounts = append(layerCounts, fmt.Sprint(n, st.calls))
	}

	// engine: the observed recipes as one batch, cold then warm.
	eng := engine.New(h.locked, parallelism, func(_ *aig.AIG, s *engine.Scratch, r synth.Recipe) float64 {
		net := s.Synth(r)
		v := float64(net.NumAnds())
		s.Release(net)
		return v
	})
	batch := append(append([]synth.Recipe(nil), observed...), observed...)
	t := time.Now()
	eng.EvaluateBatch(batch)
	cold := time.Since(t)
	t = time.Now()
	eng.EvaluateBatch(batch)
	warm := time.Since(t)
	es := eng.Stats()
	eng.Close()
	m["engine.batch_cold_ms"] = metric{ms(cold), "ms"}
	m["engine.batch_warm_ms"] = metric{ms(warm), "ms"}
	m["engine.hit_ratio"] = metric{float64(es.Hits) / float64(es.Hits+es.Misses), "ratio"}
	layerCounts = append(layerCounts, fmt.Sprint("engine", es.Hits, es.Misses))

	// gnn / subgraph / omla: a smoke-sized OMLA model trained on the
	// locked netlist, applied to the hardened one.
	acfg := smokeConfig(1).Attack
	acfg.Epochs = 6
	ext := subgraph.Extractor{Hops: acfg.Hops}
	resyn := synth.Resyn2()
	data, err := omla.GenerateDataCtx(ctx, h.locked, func(int) synth.Recipe { return resyn },
		2, 8, ext, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	var epochAt []time.Time
	t = time.Now()
	atk, err := omla.TrainOnDataCtx(ctx, data, acfg, func(int, int) { epochAt = append(epochAt, time.Now()) })
	if err != nil {
		return err
	}
	var epochMs []float64
	prev := t
	for _, at := range epochAt {
		epochMs = append(epochMs, ms(at.Sub(prev)))
		prev = at
	}
	m["gnn.train_epoch_ms"] = metric{median(epochMs), "ms"}
	var bs omla.BatchScratch
	m["attack.omla_batch_us"] = metric{timeN(30, func() { atk.AccuracyBatchWith(&bs, h.net, h.key) }).Seconds() * 1e6, "us"}
	var sc subgraph.Scratch
	var b gnn.Batch
	m["subgraph.extract_us"] = metric{timeN(30, func() { atk.Ext.AllInto(&sc, h.net, &b) }).Seconds() * 1e6, "us"}
	nsc := gnn.NewScratch()
	probs := make([]float64, b.Graphs())
	m["gnn.forward_us"] = metric{timeN(30, func() { probs = atk.Model.PredictProbBatchWith(nsc, &b, probs) }).Seconds() * 1e6, "us"}

	// aig: 64-pattern simulation of the hardened netlist, fresh patterns
	// each call.
	var ss aig.SimScratch
	rng := rand.New(rand.NewSource(1))
	in := make([]uint64, h.net.NumInputs())
	var out []uint64
	m["aig.simulate_us"] = metric{timeN(200, func() {
		for i := range in {
			in[i] = rng.Uint64()
		}
		out = h.net.SimulateInto(&ss, out, in)
	}).Seconds() * 1e6, "us"}

	// netio: BENCH round trip of the hardened netlist.
	var buf bytes.Buffer
	m["netio.write_bench_ms"] = metric{ms(timeN(20, func() {
		buf.Reset()
		if err = netio.WriteBench(&buf, h.net); err != nil {
			return
		}
	})), "ms"}
	if err != nil {
		return err
	}
	text := buf.Bytes()
	m["netio.parse_bench_ms"] = metric{ms(timeN(20, func() {
		if _, e := netio.ParseBench(bytes.NewReader(text)); e != nil {
			err = e
		}
	})), "ms"}
	if err != nil {
		return err
	}

	// attack: scope and redundancy on the hardened netlist.
	for _, name := range evalAttacks {
		a, _ := core.LookupAttacker(name)
		t := time.Now()
		if _, err := a.AttackCtx(ctx, h.net, h.key, core.WithRecipe(h.recipe)); err != nil {
			return err
		}
		m["attack."+name+"_ms"] = metric{ms(time.Since(t)), "ms"}
	}

	// satattack: the exact attack must converge on every input.
	var satMs, dips []float64
	for i, si := range sats {
		t := time.Now()
		res, err := runSAT(ctx, si)
		if err != nil {
			return err
		}
		satMs = append(satMs, ms(time.Since(t)))
		dips = append(dips, float64(res.DIPs))
		layerCounts = append(layerCounts, fmt.Sprint("dips", res.DIPs))
		tr.attempted++
		if !res.Exact {
			tr.failed++
			tr.problems = append(tr.problems, fmt.Sprintf("satattack input %d: not Exact after %d DIPs", i, res.DIPs))
		}
	}
	m["attack.satattack_ms"] = metric{median(satMs), "ms"}
	m["attack.satattack_dips"] = metric{mean(dips), "count"}
	det.record("trace/layers", digest(layerCounts...))
	return nil
}

// runSAT runs the exact SAT attack against the unlocked design's I/O.
func runSAT(ctx context.Context, in satInput) (satattack.Result, error) {
	unlocked, err := lock.ApplyKey(in.locked, in.key)
	if err != nil {
		return satattack.Result{}, err
	}
	return satattack.AttackCtx(ctx, in.locked, satattack.SimOracle(unlocked), satattack.DefaultConfig())
}

// traceHardening runs one hardening untraced and then traced, requires
// identical outputs, serves the same hardening through srv and requires
// the served result to match, then reports the core stages, the
// hardening's quality, the service layer (over jobs and the served
// hardening) and the layer replays.
func traceHardening(ctx context.Context, tr *traceResult, design *aig.AIG, seed int64, srv *server,
	jobs []*jobRecord, sats []satInput, det *detStore) error {
	s := subSeed(seed, 1<<20)
	plain, err := harden(ctx, design, s, nil)
	if err != nil {
		return err
	}
	var evs []stampedEvent
	h, err := harden(ctx, design, s, func(ev core.Event) { evs = append(evs, stampedEvent{time.Now(), ev}) })
	if err != nil {
		return err
	}
	h.events = evs
	tr.attempted += 2
	want, err := h.digest()
	if err != nil {
		return err
	}
	if d, err := plain.digest(); err != nil {
		return err
	} else if d != want {
		tr.failed++
		tr.problems = append(tr.problems, fmt.Sprintf("hardening: traced outputs %s differ from untraced %s", want, d))
	}
	q, equivMs, mapMs, err := h.verify(ctx)
	if err != nil {
		tr.failed++
		tr.problems = append(tr.problems, err.Error())
	}
	det.record("trace/hardening", digest(q.digest, coreCounts(h).String()))
	m := tr.metrics
	m["quality.proxy_acc_pct"] = metric{q.proxyPct, "%"}
	m["quality.attack_acc_pct"] = metric{q.attackPct, "%"}
	m["quality.area_ratio"] = metric{q.areaRatio, "ratio"}
	m["quality.delay_ratio"] = metric{q.delayRatio, "ratio"}
	m["cnf.equiv_ms"] = metric{equivMs, "ms"}
	m["techmap.map_ms"] = metric{mapMs, "ms"}
	coreMetrics(m, h)

	jr := serveJob(ctx, srv.clients[0], hardenSpec(s))
	tr.attempted++
	if jr.err != nil {
		tr.failed++
		tr.problems = append(tr.problems, jr.err.Error())
	} else if got := digest(jr.result.Recipe, jr.result.Key, jr.result.Netlist); got != want {
		tr.failed++
		tr.problems = append(tr.problems, fmt.Sprintf("served hardening %s differs from the staged flow %s", got, want))
	}
	serviceMetrics(m, append(jobs, jr))
	return replayLayers(ctx, tr, h, sats, det)
}
