package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/attack/omla"
	"github.com/nyu-secml/almost/internal/attack/redundancy"
	"github.com/nyu-secml/almost/internal/attack/satattack"
	"github.com/nyu-secml/almost/internal/attack/scope"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/synth"
)

// Attacker is a pluggable oracle-less attack: given a locked netlist and
// the true key, it reports its key-recovery accuracy (0.5 = random
// guessing, the defender's target). Implementations must be safe for
// concurrent calls and deterministic in their inputs — the ensemble
// objective evaluates attackers inside the concurrent recipe-evaluation
// engine and promises jobs-invariant search trajectories.
//
// Options carry cross-cutting attack context: WithRecipe names the
// defender's synthesis recipe (the §II threat model gives the attacker
// that knowledge; self-referencing attacks like OMLA need it),
// WithOMLAConfig overrides the built-in OMLA attacker's training
// settings, and WithObserver streams progress events (the built-in OMLA
// attacker labels its PhaseTrain events with Attack: "omla").
// Implementations ignore options they do not understand.
type Attacker interface {
	// Name is the registry key, e.g. "omla". Lowercase by convention.
	Name() string
	// AttackCtx runs the attack on netlist and scores the predicted key
	// against truth. The context is honored at the implementation's
	// natural checkpoints; on cancellation the error matches both
	// ErrCanceled and ctx.Err().
	AttackCtx(ctx context.Context, netlist *aig.AIG, truth lock.Key, opts ...Option) (float64, error)
}

// KeyPredictor is an optional Attacker upgrade for attacks that can
// report the predicted key itself, not only its accuracy. The CLI's
// attack command uses it to print the guessed key. All built-in
// attackers implement it.
type KeyPredictor interface {
	PredictKeyCtx(ctx context.Context, netlist *aig.AIG, opts ...Option) (lock.Key, error)
}

// Locker is a pluggable logic-locking scheme: it inserts keySize key
// gates into g and returns the locked netlist with the correct key.
// Key inputs must follow the "keyinput%d" naming convention, numbered
// after any key inputs already present, so lockers compose into
// mixed-scheme chains (Config.Lockers). Implementations must be
// deterministic in (g, keySize, rng).
type Locker interface {
	// Name is the registry key, e.g. "rll". Lowercase by convention.
	Name() string
	// LockCtx locks g with keySize key gates. The returned key is
	// aligned with the key inputs the call created, in creation order.
	LockCtx(ctx context.Context, g *aig.AIG, keySize int, rng *rand.Rand) (*aig.AIG, lock.Key, error)
}

// registry is a concurrency-safe name -> value table that remembers
// registration order; the order is the canonical reduction order of the
// ensemble objective and the display order of the CLI listings.
type registry[T any] struct {
	mu    sync.RWMutex
	kind  string
	items map[string]T
	order []string
}

func (r *registry[T]) register(name string, v T) error {
	if name == "" {
		return fmt.Errorf("core: cannot register %s with an empty name", r.kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.items == nil {
		r.items = make(map[string]T)
	}
	if _, dup := r.items[name]; dup {
		return fmt.Errorf("core: %s %q is already registered", r.kind, name)
	}
	r.items[name] = v
	r.order = append(r.order, name)
	return nil
}

func (r *registry[T]) lookup(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.items[name]
	return v, ok
}

func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// seq returns the registration index of name (for canonical ordering);
// unregistered names sort last.
func (r *registry[T]) seq(name string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i, n := range r.order {
		if n == name {
			return i
		}
	}
	return len(r.order)
}

var (
	attackers = &registry[Attacker]{kind: "attacker"}
	lockers   = &registry[Locker]{kind: "locker"}
)

// RegisterAttacker adds an attack to the registry. Registration is safe
// for concurrent use; duplicate or empty names are rejected. Register
// third-party attacks before building Configs that name them in
// EvalAttacks.
func RegisterAttacker(a Attacker) error {
	if a == nil {
		return fmt.Errorf("core: cannot register a nil attacker")
	}
	return attackers.register(a.Name(), a)
}

// RegisterLocker adds a locking scheme to the registry. Registration is
// safe for concurrent use; duplicate or empty names are rejected.
func RegisterLocker(l Locker) error {
	if l == nil {
		return fmt.Errorf("core: cannot register a nil locker")
	}
	return lockers.register(l.Name(), l)
}

// Attackers lists the registered attack names in registration order
// (built-ins first: omla, scope, redundancy).
func Attackers() []string { return attackers.names() }

// Lockers lists the registered locking-scheme names in registration
// order (built-ins first: rll, mux).
func Lockers() []string { return lockers.names() }

// LookupAttacker resolves a registered attack by name.
func LookupAttacker(name string) (Attacker, bool) { return attackers.lookup(name) }

// LookupLocker resolves a registered locking scheme by name.
func LookupLocker(name string) (Locker, bool) { return lockers.lookup(name) }

// canceledIfCtx wraps err with ErrCanceled only when the context is
// actually done, so non-cancellation failures surfaced by an attacker
// are not mislabeled as cancellations.
func canceledIfCtx(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		return canceled(err)
	}
	return err
}

// --- built-in attackers ------------------------------------------------

// omlaAttacker adapts the OMLA GNN attack (the paper's primary
// adversary) to the Attacker interface. Each AttackCtx call trains a
// fresh attacker against the netlist under attack — the independent,
// full-knowledge evaluation of Table II. The training recipe comes from
// WithRecipe (default resyn2); training settings from WithOMLAConfig
// (default omla.DefaultConfig).
type omlaAttacker struct{}

func (omlaAttacker) Name() string { return "omla" }

// settings resolves the training configuration, defender recipe, and
// epoch observer from the call options.
func (omlaAttacker) settings(opts []Option) (omla.Config, synth.Recipe, omla.EpochFunc) {
	ro := buildOptions(opts)
	cfg := omla.DefaultConfig()
	if ro.omlaCfg != nil {
		cfg = *ro.omlaCfg
	}
	recipe := ro.recipe
	if recipe == nil {
		recipe = synth.Resyn2()
	}
	var onEpoch omla.EpochFunc
	if len(ro.observers) > 0 {
		onEpoch = func(epoch, epochs int) {
			ro.emit(Event{Phase: PhaseTrain, Attack: "omla", Epoch: epoch, Epochs: epochs,
				Samples: cfg.Rounds * cfg.GatesPerRound})
		}
	}
	return cfg, recipe, onEpoch
}

func (a omlaAttacker) AttackCtx(ctx context.Context, netlist *aig.AIG, truth lock.Key, opts ...Option) (float64, error) {
	cfg, recipe, onEpoch := a.settings(opts)
	acc, err := omla.AccuracyCtx(ctx, netlist, recipe, truth, cfg, onEpoch)
	if err != nil {
		return 0, canceledIfCtx(ctx, err)
	}
	return acc, nil
}

func (a omlaAttacker) PredictKeyCtx(ctx context.Context, netlist *aig.AIG, opts ...Option) (lock.Key, error) {
	cfg, recipe, onEpoch := a.settings(opts)
	atk, err := omla.TrainCtx(ctx, netlist, recipe, cfg, onEpoch)
	if err != nil {
		return nil, canceledIfCtx(ctx, err)
	}
	return atk.PredictKeyBatchWith(nil, netlist), nil
}

// scopeAttacker adapts the SCOPE constant-propagation attack.
type scopeAttacker struct{}

func (scopeAttacker) Name() string { return "scope" }

func (scopeAttacker) AttackCtx(ctx context.Context, netlist *aig.AIG, truth lock.Key, opts ...Option) (float64, error) {
	acc, err := scope.AccuracyCtx(ctx, netlist, truth, scope.DefaultConfig())
	return acc, canceledIfCtx(ctx, err)
}

func (scopeAttacker) PredictKeyCtx(ctx context.Context, netlist *aig.AIG, opts ...Option) (lock.Key, error) {
	key, err := scope.PredictKeyCtx(ctx, netlist, scope.DefaultConfig())
	return key, canceledIfCtx(ctx, err)
}

// redundancyAttacker adapts the redundancy-identification attack. The
// effort settings come from WithRedundancyConfig (default
// redundancy.DefaultConfig).
type redundancyAttacker struct{}

func (redundancyAttacker) Name() string { return "redundancy" }

func (redundancyAttacker) config(opts []Option) redundancy.Config {
	ro := buildOptions(opts)
	if ro.redundancyCfg != nil {
		return *ro.redundancyCfg
	}
	return redundancy.DefaultConfig()
}

func (a redundancyAttacker) AttackCtx(ctx context.Context, netlist *aig.AIG, truth lock.Key, opts ...Option) (float64, error) {
	acc, err := redundancy.AccuracyCtx(ctx, netlist, truth, a.config(opts))
	return acc, canceledIfCtx(ctx, err)
}

func (a redundancyAttacker) PredictKeyCtx(ctx context.Context, netlist *aig.AIG, opts ...Option) (lock.Key, error) {
	key, err := redundancy.PredictKeyCtx(ctx, netlist, a.config(opts))
	return key, canceledIfCtx(ctx, err)
}

// satFamilyAttacker adapts the oracle-guided SAT attack (and its AppSAT
// approximate variant) to the Attacker interface. These attackers model
// a strictly stronger adversary than the paper's oracle-less ones: they
// hold a working unlocked chip. Inside AttackCtx that oracle is derived
// from the true key the ensemble objective already supplies (the locked
// netlist under the correct key IS the working chip), so "satattack" and
// "appsat" can appear in Config.EvalAttacks with no extra plumbing.
// PredictKeyCtx has no true key and requires WithOracle.
//
// Budget exhaustion (MaxDIPs/SolveConflicts) is not an error: the
// attacker scores its best-so-far key, which is exactly the defender's
// question — how much key material does a budgeted SAT adversary pry
// out? Config comes from WithSATAttackConfig (default DefaultConfig).
type satFamilyAttacker struct {
	name        string
	approximate bool
}

func (a satFamilyAttacker) Name() string { return a.name }

func (a satFamilyAttacker) run(ctx context.Context, netlist *aig.AIG, oracle satattack.Oracle, opts []Option) (satattack.Result, error) {
	ro := buildOptions(opts)
	cfg := satattack.DefaultConfig()
	if ro.satCfg != nil {
		cfg = *ro.satCfg
	}
	if a.approximate {
		return satattack.AppSATCtx(ctx, netlist, oracle, cfg)
	}
	return satattack.AttackCtx(ctx, netlist, oracle, cfg)
}

func (a satFamilyAttacker) AttackCtx(ctx context.Context, netlist *aig.AIG, truth lock.Key, opts ...Option) (float64, error) {
	oracle := buildOptions(opts).oracle
	if oracle == nil {
		unlocked, err := lock.ApplyKey(netlist, truth)
		if err != nil {
			return 0, err
		}
		oracle = satattack.SimOracle(unlocked)
	}
	res, err := a.run(ctx, netlist, oracle, opts)
	if err != nil {
		return lock.Accuracy(truth, res.Key), canceledIfCtx(ctx, err)
	}
	return lock.Accuracy(truth, res.Key), nil
}

func (a satFamilyAttacker) PredictKeyCtx(ctx context.Context, netlist *aig.AIG, opts ...Option) (lock.Key, error) {
	oracle := buildOptions(opts).oracle
	if oracle == nil {
		return nil, fmt.Errorf("core: the %s attacker needs an I/O oracle to predict a key: pass WithOracle", a.name)
	}
	res, err := a.run(ctx, netlist, oracle, opts)
	if err != nil {
		return res.Key, canceledIfCtx(ctx, err)
	}
	return res.Key, nil
}

// --- built-in lockers --------------------------------------------------

// rllLocker is plain random logic locking (XOR/XNOR key gates), the
// paper's baseline scheme. Locking is cheap relative to every other
// pipeline stage, so the built-in lockers run to completion even on a
// canceled context — SecureSynthesisCtx relies on that to hand back the
// locked instance alongside the cancellation error.
type rllLocker struct{}

func (rllLocker) Name() string { return "rll" }

func (rllLocker) LockCtx(_ context.Context, g *aig.AIG, keySize int, rng *rand.Rand) (*aig.AIG, lock.Key, error) {
	locked, key := lock.Lock(g, keySize, rng)
	return locked, key, nil
}

// muxLocker is MUX-based locking: each key gate multiplexes the true
// signal against a decoy drawn from elsewhere in the circuit. Like
// rllLocker it runs to completion regardless of the context.
type muxLocker struct{}

func (muxLocker) Name() string { return "mux" }

func (muxLocker) LockCtx(_ context.Context, g *aig.AIG, keySize int, rng *rand.Rand) (*aig.AIG, lock.Key, error) {
	locked, key := lock.LockMux(g, keySize, rng)
	return locked, key, nil
}

// antiSATLocker is the anti-SAT/SARLock point-function scheme: it
// corrupts one input pattern per wrong key, inflating the oracle-guided
// SAT attack's DIP count exponentially while leaving oracle-less attack
// surfaces essentially unchanged. Chain it after a functional scheme
// ("rll,antisat") — by itself it protects almost nothing functionally.
type antiSATLocker struct{}

func (antiSATLocker) Name() string { return "antisat" }

func (antiSATLocker) LockCtx(_ context.Context, g *aig.AIG, keySize int, rng *rand.Rand) (*aig.AIG, lock.Key, error) {
	locked, key := lock.LockAntiSAT(g, keySize, rng)
	return locked, key, nil
}

func init() {
	// Built-in registration order defines the canonical ensemble
	// reduction order and the CLI listing order.
	for _, a := range []Attacker{
		omlaAttacker{}, scopeAttacker{}, redundancyAttacker{},
		satFamilyAttacker{name: "satattack"},
		satFamilyAttacker{name: "appsat", approximate: true},
	} {
		if err := RegisterAttacker(a); err != nil {
			panic(err)
		}
	}
	for _, l := range []Locker{rllLocker{}, muxLocker{}, antiSATLocker{}} {
		if err := RegisterLocker(l); err != nil {
			panic(err)
		}
	}
}

// canonicalAttacks normalizes an EvalAttacks list: an empty list means
// the paper's OMLA-only objective, duplicates and unknown names are
// rejected, and the result is sorted by registration order so the
// ensemble reduction — and therefore the whole search trajectory — is
// independent of the order the caller listed the attacks in.
func canonicalAttacks(names []string) ([]string, error) {
	if len(names) == 0 {
		return []string{"omla"}, nil
	}
	out := append([]string(nil), names...)
	seen := make(map[string]bool, len(out))
	for _, n := range out {
		if seen[n] {
			return nil, fmt.Errorf("%w: Config.EvalAttacks lists %q twice", ErrInvalidConfig, n)
		}
		seen[n] = true
		if _, ok := LookupAttacker(n); !ok {
			return nil, fmt.Errorf("%w: Config.EvalAttacks names unknown attack %q (registered: %s)",
				ErrInvalidConfig, n, strings.Join(Attackers(), ", "))
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return attackers.seq(out[i]) < attackers.seq(out[j])
	})
	return out, nil
}

// canonicalLockers normalizes a Lockers list: an empty list means plain
// RLL; duplicates are allowed (locking twice with the same scheme is
// meaningful), unknown names are rejected, and the caller's order is
// preserved — lockers chain in the order given.
func canonicalLockers(names []string) ([]string, error) {
	if len(names) == 0 {
		return []string{"rll"}, nil
	}
	for _, n := range names {
		if _, ok := LookupLocker(n); !ok {
			return nil, fmt.Errorf("%w: Config.Lockers names unknown locker %q (registered: %s)",
				ErrInvalidConfig, n, strings.Join(Lockers(), ", "))
		}
	}
	return append([]string(nil), names...), nil
}

// LockWithCtx locks g by chaining the named registered schemes (nil or
// empty means plain RLL). keySize is split evenly across the chain, the
// first scheme absorbing the remainder; the returned key concatenates
// the per-scheme keys in chain order, which matches key-input creation
// order. The shared rng makes the whole chain deterministic in its seed.
func LockWithCtx(ctx context.Context, g *aig.AIG, keySize int, names []string, rng *rand.Rand) (*aig.AIG, lock.Key, error) {
	chain, err := canonicalLockers(names)
	if err != nil {
		return nil, nil, err
	}
	shares := make([]int, len(chain))
	per := keySize / len(chain)
	for i := range shares {
		shares[i] = per
	}
	shares[0] += keySize - per*len(chain)
	locked := g
	var key lock.Key
	for i, name := range chain {
		lk, _ := LookupLocker(name) // canonicalLockers verified the name
		next, k, err := lk.LockCtx(ctx, locked, shares[i], rng)
		if err != nil {
			return nil, nil, err
		}
		locked, key = next, append(key, k...)
	}
	return locked, key, nil
}
