// Package engine provides the concurrent recipe-evaluation engine behind
// ALMOST's simulated-annealing searches. Every step of the paper's hot
// loop — re-synthesize the locked AIG with a candidate recipe, then score
// it (proxy attack accuracy, model loss, mapped PPA, ...) — is
// independent of every other candidate, so the engine fans candidates
// out across a pool of workers, each holding its own private copy of the
// base netlist, and memoizes results in a cache keyed by (base
// structural digest, canonical recipe bytes) so recipes the annealer
// revisits are never re-synthesized — and scores minted against one base
// can never answer a lookup against another after a Rebase.
//
// The cache is single-flight: when several concurrent batches miss on
// the same recipe key, exactly one caller runs the synthesize+attack
// evaluation and the others block until the value settles — a key is
// never evaluated twice, no matter how many searches share the
// evaluator, and Stats.Misses counts evaluations actually started. If
// the evaluating caller is canceled before its job reaches a worker,
// the key is released and one of the waiters takes over.
//
// Determinism contract: EvaluateBatch returns scores in input order and
// the score of a recipe depends only on the recipe (the EvalFunc must be
// a pure function of the netlist and recipe — the worker Scratch it
// receives is storage, never an input). Under that contract the results
// are bit-for-bit identical for any worker count, which is what lets
// anneal.RunParallel promise jobs-independent search trajectories.
//
// Allocation contract: worker state (netlist clone, synthesis arena,
// recipe-prefix chain) is pooled across batches, cache lookups build
// their key into a stack buffer, and a settled hit via
// Evaluate/EvaluateCtx/Cached allocates nothing — the steady-state cost
// of the annealer revisiting a recipe is one mutex-guarded map probe.
package engine

import (
	"context"
	"runtime"
	"sync"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/synth"
)

// Scratch is the reusable per-worker state handed to every EvalFunc
// call: a worker-private clone of the base netlist plus a warm synthesis
// arena. Scratches are pooled (sync.Pool) across batches, so a
// long-lived evaluator reaches a zero-allocation steady state: the arena
// recycles every intermediate netlist of a recipe, and Aux lets an
// EvalFunc stash its own per-worker state (core keeps a GNN inference
// scratch there).
//
// A Scratch is confined to one evaluation at a time — EvalFuncs may use
// it freely without synchronization but must not retain any part of it
// (or anything allocated from the Arena) past the call's return.
type Scratch struct {
	g *aig.AIG // worker-private clone of the evaluator's base netlist

	// Arena pools synthesis storage; score netlists with s.Synth(r) and
	// hand the result to s.Release once scored.
	Arena *synth.Arena
	// Aux is EvalFunc-owned per-worker state, lazily initialized by the
	// EvalFunc itself (it starts nil on a fresh scratch).
	Aux any

	// epoch identifies which evaluator base s.g is a clone of; workers
	// re-clone lazily when a Rebase bumps the evaluator's epoch.
	epoch uint64
	// chainSteps/chainNets cache the per-step intermediate netlists of
	// the most recent Synth call: chainNets[i] is chainSteps[:i+1] run
	// against the base. The annealer's neighborhood move redraws one
	// recipe position, so consecutive candidates usually share a long
	// prefix and Synth resumes from the deepest shared intermediate —
	// each SA proposal is applied as a delta against the persistent base
	// rather than re-synthesized from scratch.
	chainSteps synth.Recipe
	chainNets  []*aig.AIG
}

// Synth synthesizes recipe r against the worker's base netlist and
// returns the result, reusing the longest shared recipe prefix from the
// previous Synth call on this scratch. The returned graph is owned by
// the scratch's chain — score it, then hand it to s.Release and do not
// retain it past the EvalFunc call. An empty recipe returns the base
// itself. The result is bit-for-bit identical to r.Run on a fresh clone
// of the base: every chained intermediate is the deterministic product
// of its step prefix against the same base content.
func (s *Scratch) Synth(r synth.Recipe) *aig.AIG {
	p := 0
	for p < len(r) && p < len(s.chainSteps) && r[p] == s.chainSteps[p] {
		p++
	}
	for i := len(s.chainNets) - 1; i >= p; i-- {
		s.Arena.Recycle(s.chainNets[i])
		s.chainNets[i] = nil
	}
	s.chainSteps = s.chainSteps[:p]
	s.chainNets = s.chainNets[:p]
	cur := s.g
	if p > 0 {
		cur = s.chainNets[p-1]
	}
	for _, st := range r[p:] {
		cur = st.Run(cur, s.Arena)
		s.chainSteps = append(s.chainSteps, st)
		s.chainNets = append(s.chainNets, cur)
	}
	return cur
}

// Release hands a netlist produced by Synth back to the scratch. Nets
// owned by the prefix chain (and the base itself) are retained for
// reuse; anything else is recycled into the arena. EvalFuncs call it
// unconditionally on every net they are done scoring.
func (s *Scratch) Release(net *aig.AIG) {
	if net == nil || net == s.g {
		return
	}
	for _, c := range s.chainNets {
		if c == net {
			return
		}
	}
	s.Arena.Recycle(net)
}

// releaseChain recycles every chained intermediate (used on rebase —
// the chain is only meaningful against one base).
func (s *Scratch) releaseChain() {
	for i := range s.chainNets {
		s.Arena.Recycle(s.chainNets[i])
		s.chainNets[i] = nil
	}
	s.chainNets = s.chainNets[:0]
	s.chainSteps = s.chainSteps[:0]
}

// syncBase points the scratch at the evaluator base identified by epoch,
// lazily re-cloning on the first job after a Rebase. The old clone's
// storage and the stale prefix chain are recycled into the arena.
func (s *Scratch) syncBase(base *aig.AIG, epoch uint64) {
	if s.epoch == epoch && s.g != nil {
		return
	}
	s.releaseChain()
	if s.g != nil {
		s.Arena.Recycle(s.g)
	}
	s.g = base.Clone()
	s.epoch = epoch
}

// NewScratch builds a standalone scratch over its own clone of base,
// outside any evaluator. Benchmarks and identity tests use it to drive
// the Synth/Release path directly, exactly as an evaluator's workers do.
func NewScratch(base *aig.AIG) *Scratch {
	return &Scratch{g: base.Clone(), Arena: synth.NewArena()}
}

// EvalFunc scores one recipe. g is a worker-private copy of the base
// netlist handed to New and s is the worker's scratch state, so
// implementations may synthesize from g and allocate from s freely
// without synchronization; they must not retain g or s (or anything
// handed out by s.Arena) past the call, must not mutate captured
// shared state, and the returned score must be a pure function of (g, r)
// alone — never of scratch contents — so results are bit-for-bit
// identical for any worker count.
type EvalFunc func(g *aig.AIG, s *Scratch, r synth.Recipe) float64

// RecipeKey returns the canonical key of a recipe: its step codes as raw
// bytes. Two recipes share a key iff they are step-for-step equal, so
// the "hash" is collision-free. Callers that track per-recipe state
// (core's searchProblem) key on it; the evaluator's own cache composes
// it with the base digest (see appendEvalKey) and goes through
// stack-backed buffers + compiler-optimized map indexing instead, so
// cache hits allocate nothing.
func RecipeKey(r synth.Recipe) string {
	return string(appendRecipeKey(make([]byte, 0, len(r)), r))
}

// appendRecipeKey appends r's canonical key bytes to dst. With a
// stack-backed dst and a map lookup of the form m[string(key)] the whole
// path is allocation-free (the compiler elides the string conversion).
//
//almost:hotpath
func appendRecipeKey(dst []byte, r synth.Recipe) []byte {
	for _, s := range r {
		dst = append(dst, byte(s)) //almost:nolint hotpathalloc // dst is a stack-backed buffer that never grows past a key's length
	}
	return dst
}

// appendEvalKey appends the evaluator cache key of (base, recipe) to
// dst: the 8-byte structural digest of the base netlist followed by the
// recipe's step codes. Scores cached against one base can never answer
// a lookup against another, and after Rebase returns to an
// already-digested base its settled scores become hits again.
//
//almost:hotpath
func appendEvalKey(dst []byte, baseKey uint64, r synth.Recipe) []byte {
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(baseKey>>(8*uint(i)))) //almost:nolint hotpathalloc // dst is a stack-backed buffer that never grows past a key's length
	}
	return appendRecipeKey(dst, r)
}

// evalKeyBufLen sizes the stack key buffers: 8 digest bytes plus the
// longest recipe the hot paths see (RecipeLength is 10; 40 leaves slack
// for experiment sweeps with long custom scripts).
const evalKeyBufLen = 8 + 40

// Stats reports cache effectiveness.
type Stats struct {
	// Hits counts lookups answered without starting an evaluation:
	// from a settled cache entry, or by waiting on an evaluation another
	// caller already had in flight (single-flight deduplication).
	Hits int
	// Misses counts evaluations actually started — exactly one per
	// distinct recipe, however many callers race on it concurrently.
	Misses int
	// Size counts distinct recipes with a settled score in the cache.
	Size int
}

// job is one cache miss dispatched to the worker pool. It carries the
// base (and its epoch) the recipe was keyed against at classification
// time, so a concurrent Rebase can never mis-file a score under the
// wrong base digest.
type job struct {
	recipe synth.Recipe
	base   *aig.AIG
	epoch  uint64
	slot   int
	out    []float64
	wg     *sync.WaitGroup
}

// entry is one cache slot under single-flight discipline. It is
// created (in flight) by the first caller to miss on a key; done is
// closed when the evaluation settles. valid distinguishes a computed
// score from an abandoned evaluation (owner canceled before its job
// was handed to a worker) — abandoned entries are removed from the
// cache before done closes, so a waiter that observes valid == false
// re-resolves the key and may become the new owner.
//
// val and valid are written before close(done) and read only after
// <-done, so the channel's happens-before edge makes them safe to read
// without the evaluator lock.
type entry struct {
	done  chan struct{}
	val   float64
	valid bool
}

// settled reports whether the entry's evaluation has completed.
func (en *entry) settled() bool {
	select {
	case <-en.done:
		return true
	default:
		return false
	}
}

// Evaluator is a concurrent, memoizing recipe evaluator with
// single-flight deduplication: when several callers miss on the same
// recipe key concurrently, exactly one evaluates it and the others wait
// for the settled value. Create with New, release with Close. All
// methods are safe for concurrent use.
type Evaluator struct {
	jobs    int
	fn      EvalFunc
	reqs    chan job
	wg      sync.WaitGroup
	scratch sync.Pool // of *Scratch; workers clone the base lazily via syncBase

	mu      sync.Mutex
	base    *aig.AIG
	baseKey uint64 // StructuralDigest of base; cache-key prefix
	epoch   uint64 // bumped by Rebase; workers re-clone on mismatch
	cache   map[string]*entry
	hits    int
	miss    int
	settled int
}

// New builds an evaluator over base with the given worker count (jobs <= 0
// selects runtime.NumCPU()). Worker scratch state — a private Clone of
// base plus synthesis/simulation buffers — comes from a sync.Pool: each
// worker checks one out for its lifetime, so scratches (and their
// warmed arenas and prefix chains) survive across batches instead of
// being rebuilt per evaluation. Each worker's prefix chain retains up to
// one intermediate netlist per recipe step. Every e.fn invocation happens on a
// worker goroutine with that worker's scratch; there is no inline
// evaluation path.
//
// Cache keys compose the base's structural digest with the recipe (see
// appendEvalKey), so an evaluator that is Rebased between batches keeps
// one coherent cache across all bases it has seen.
func New(base *aig.AIG, jobs int, fn EvalFunc) *Evaluator {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	e := &Evaluator{
		jobs:    jobs,
		fn:      fn,
		base:    base,
		baseKey: base.StructuralDigest(),
		epoch:   1,
		reqs:    make(chan job),
		cache:   make(map[string]*entry),
	}
	e.scratch.New = func() any {
		return &Scratch{Arena: synth.NewArena()}
	}
	for i := 0; i < jobs; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Jobs returns the worker count.
func (e *Evaluator) Jobs() int { return e.jobs }

// Rebase atomically switches the evaluator to a new base netlist.
// Workers re-clone lazily on their next job; settled scores stay in the
// cache under their original base digest, so rebasing back to a
// previously seen base (bit-identical content) turns its old scores
// into hits again — the memo composes with incremental base evolution.
// In-flight batches are unaffected: their jobs carry the base they were
// keyed against. The caller must not mutate base while the evaluator
// can still evaluate against it.
func (e *Evaluator) Rebase(base *aig.AIG) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.base = base
	e.baseKey = base.StructuralDigest()
	e.epoch++
}

// BaseDigest returns the structural digest of the current base — the
// prefix of every cache key minted for it.
func (e *Evaluator) BaseDigest() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.baseKey
}

func (e *Evaluator) worker() {
	defer e.wg.Done()
	s := e.scratch.Get().(*Scratch)
	defer e.scratch.Put(s)
	for j := range e.reqs {
		s.syncBase(j.base, j.epoch)
		j.out[j.slot] = e.fn(s.g, s, j.recipe)
		j.wg.Done()
	}
}

// Evaluate scores one recipe, consulting the cache first. A settled cache
// hit is answered inline without allocating.
func (e *Evaluator) Evaluate(r synth.Recipe) float64 {
	v, _ := e.EvaluateCtx(context.Background(), r)
	return v
}

// EvaluateCtx is the cancellable variant of Evaluate. A settled cache hit
// is answered inline without allocating; misses go through the batch
// path (worker dispatch, single-flight deduplication).
//
//almost:hotpath
func (e *Evaluator) EvaluateCtx(ctx context.Context, r synth.Recipe) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var kb [evalKeyBufLen]byte
	e.mu.Lock()
	key := appendEvalKey(kb[:0], e.baseKey, r)
	if en, ok := e.cache[string(key)]; ok && en.settled() {
		e.hits++
		e.mu.Unlock()
		return en.val, nil
	}
	e.mu.Unlock()
	out, err := e.EvaluateBatchCtx(ctx, []synth.Recipe{r})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// EvaluateBatch scores a batch of candidates, returning one score per
// recipe in input order. Cache hits are answered immediately; distinct
// misses (duplicates within the batch are evaluated once) fan out across
// the worker pool and the call blocks until all of them finish.
func (e *Evaluator) EvaluateBatch(rs []synth.Recipe) []float64 {
	out, _ := e.EvaluateBatchCtx(context.Background(), rs)
	return out
}

// EvaluateBatchCtx is the cancellable variant of EvaluateBatch: the
// context is checked before the batch and between job dispatches. On
// cancellation no further evaluations start, the call waits for the jobs
// already handed to workers (so no goroutine ever races a returned
// slice), caches their scores, and returns nil scores with ctx.Err().
// A batch that returns an error has still made progress: every score
// computed before the cancellation is in the cache for the next call.
//
// Concurrent batches missing on the same key are deduplicated
// (single-flight): the first caller to miss evaluates, later callers
// wait for the settled value, and Stats.Misses counts one evaluation.
// If the evaluating caller is canceled before its job reaches a
// worker, the key is released and a waiter takes over ownership.
func (e *Evaluator) EvaluateBatchCtx(ctx context.Context, rs []synth.Recipe) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, len(rs))
	keys := make([]string, len(rs))

	// Classify the first occurrence of every distinct key: answered
	// (settled cache entry), owned (we created the in-flight entry and
	// must evaluate), or waiting (another caller's evaluation is in
	// flight). Duplicate occurrences copy from the first at the end.
	first := make(map[string]int, len(rs))
	var owned []int // first-occurrence indices we own
	var ownedEntries []*entry
	var waiting []int // first-occurrence indices resolved by waiting
	var waitEntries []*entry
	var kb [evalKeyBufLen]byte
	e.mu.Lock()
	// The whole batch is keyed against one base snapshot: a concurrent
	// Rebase moves future batches to the new base but never re-keys or
	// re-targets this one (jobs carry base+epoch explicitly).
	base, baseKey, epoch := e.base, e.baseKey, e.epoch
	for i, r := range rs {
		k := string(appendEvalKey(kb[:0], baseKey, r))
		keys[i] = k
		if _, dup := first[k]; dup {
			continue
		}
		first[k] = i
		if en, ok := e.cache[k]; ok {
			if en.settled() {
				// en.valid is always true for settled entries still in
				// the cache: abandoned entries are removed before close.
				out[i] = en.val
				e.hits++
			} else {
				waiting = append(waiting, i)
				waitEntries = append(waitEntries, en)
			}
			continue
		}
		en := &entry{done: make(chan struct{})}
		e.cache[k] = en
		e.miss++ // one miss per evaluation, not per duplicate or waiter
		owned = append(owned, i)
		ownedEntries = append(ownedEntries, en)
	}
	e.mu.Unlock()

	if len(owned) > 0 {
		vals := make([]float64, len(owned))
		var wg sync.WaitGroup
		sent := 0 // jobs handed to workers: always the prefix owned[:sent]
		for slot, i := range owned {
			if ctx.Err() != nil {
				break
			}
			wg.Add(1)
			select {
			case e.reqs <- job{recipe: rs[i], base: base, epoch: epoch, slot: slot, out: vals, wg: &wg}:
				sent++
			case <-ctx.Done():
				wg.Done()
			}
			if ctx.Err() != nil {
				break
			}
		}
		wg.Wait()
		e.settle(keys, owned, ownedEntries, vals, sent)
		for slot, i := range owned[:sent] {
			out[i] = vals[slot]
		}
	}

	// Resolve keys another caller was evaluating. Our own entries are
	// settled by now, so two batches waiting on parts of each other's
	// work cannot deadlock.
	for wi, i := range waiting {
		v, err := e.await(ctx, rs[i], keys[i], waitEntries[wi], base, epoch)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range rs {
		if fi := first[keys[i]]; fi != i {
			out[i] = out[fi]
		}
	}
	return out, nil
}

// settle publishes the outcome of this batch's owned evaluations: the
// first sent entries get their computed values; the rest were never
// handed to a worker (cancellation) and are released so another caller
// can claim the key.
func (e *Evaluator) settle(keys []string, owned []int, entries []*entry, vals []float64, sent int) {
	e.mu.Lock()
	for slot := range owned[:sent] {
		en := entries[slot]
		en.val = vals[slot]
		en.valid = true
		e.settled++
	}
	for _, i := range owned[sent:] {
		delete(e.cache, keys[i])
	}
	e.mu.Unlock()
	// Close outside the lock ordering concerns: close after the map
	// state is consistent, so a waiter that wakes and re-locks sees
	// either the settled entry (valid) or the key absent (abandoned).
	for _, en := range entries[:sent] {
		close(en.done)
	}
	for _, en := range entries[sent:] {
		close(en.done)
	}
}

// await blocks until the in-flight evaluation of key settles, the
// context is canceled, or — if the evaluating caller abandoned the key —
// this caller takes over and evaluates r itself against the same base
// snapshot the key was built from.
func (e *Evaluator) await(ctx context.Context, r synth.Recipe, key string, en *entry, base *aig.AIG, epoch uint64) (float64, error) {
	for {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-en.done:
		}
		if en.valid {
			e.mu.Lock()
			e.hits++ // answered without starting an evaluation
			e.mu.Unlock()
			return en.val, nil
		}
		// The previous owner abandoned the evaluation. Re-resolve:
		// either someone else took over, or we claim ownership.
		e.mu.Lock()
		if cur, ok := e.cache[key]; ok {
			e.mu.Unlock()
			en = cur
			continue
		}
		en = &entry{done: make(chan struct{})}
		e.cache[key] = en
		e.miss++
		e.mu.Unlock()

		vals := make([]float64, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		sent := 1
		select {
		case e.reqs <- job{recipe: r, base: base, epoch: epoch, slot: 0, out: vals, wg: &wg}:
		case <-ctx.Done():
			wg.Done()
			sent = 0
		}
		wg.Wait()
		e.settle([]string{key}, []int{0}, []*entry{en}, vals, sent)
		if sent == 0 {
			return 0, ctx.Err()
		}
		return vals[0], nil
	}
}

// Cached returns the settled cached score of r, if present. An
// in-flight evaluation does not count as cached. Like EvaluateCtx's hit
// path, the lookup is allocation-free.
//
//almost:hotpath
func (e *Evaluator) Cached(r synth.Recipe) (float64, bool) {
	var kb [evalKeyBufLen]byte
	e.mu.Lock()
	defer e.mu.Unlock()
	key := appendEvalKey(kb[:0], e.baseKey, r)
	en, ok := e.cache[string(key)]
	if !ok || !en.settled() {
		return 0, false
	}
	return en.val, true
}

// Stats returns a snapshot of cache counters.
func (e *Evaluator) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{Hits: e.hits, Misses: e.miss, Size: e.settled}
}

// Close shuts the worker pool down and waits for in-flight evaluations.
// The evaluator must not be used after Close.
func (e *Evaluator) Close() {
	close(e.reqs)
	e.wg.Wait()
}
