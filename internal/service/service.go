// Package service turns the ALMOST library into a hardening-as-a-service
// job server: clients submit lock/attack/harden/pipeline jobs over a
// line-delimited JSON wire protocol, the server runs them through the
// existing context-threaded entry points on a shared, fairly scheduled
// engine-worker pool, and streams each job's almost.Event progress feed
// back live. The design borrows the discipline of large DAQ front ends:
// many producers, one ordered event stream per job, nothing dropped
// silently and nothing leaked.
//
// The package splits into five pieces:
//
//   - the job model (this file): JobSpec describes work, JobResult is
//     the bit-stable outcome, JobStatus/StreamEvent/Stats are the wire
//     views of a job's life;
//   - RunSpec (run.go): the one function that executes a spec through
//     the library. The server's job runner and a client's local
//     verification call share it, so a served result cannot drift from
//     a direct library call with the same seed;
//   - Pool (pool.go): the shared worker-slot pool with fair, bounded-
//     overtaking admission and per-job Parallelism budgets;
//   - Scheduler (scheduler.go): the bounded job queue, per-job event
//     buffers, cancellation, and counters;
//   - Server/Client (server.go, client.go): the net/http wire layer —
//     stdlib only, JSON bodies, NDJSON event streams — plus the soak
//     harness (soak.go) that hammers a server with mixed
//     submit/cancel/watch load and verifies determinism end to end.
package service

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/core"
)

// JobKind selects what a job runs.
type JobKind string

// Job kinds, in increasing order of cost.
const (
	// KindLock applies the spec's locking chain to the circuit.
	KindLock JobKind = "lock"
	// KindAttack runs the spec's attacks against a locked netlist with a
	// known true key and reports per-attack accuracies.
	KindAttack JobKind = "attack"
	// KindHarden runs the full ALMOST flow: lock, train the adversarial
	// proxy, search for S_ALMOST, synthesize.
	KindHarden JobKind = "harden"
	// KindPipeline is KindHarden plus a baseline-vs-hardened evaluation
	// of the spec's attacks (the CLI's `pipeline` subcommand).
	KindPipeline JobKind = "pipeline"
)

// Effort selects the framework budget a job runs with.
type Effort string

// Efforts, smallest first. The zero value means EffortQuick.
const (
	// EffortSmoke is the minimal budget that still exercises every stage
	// — the soak harness's setting.
	EffortSmoke Effort = "smoke"
	// EffortQuick matches the CLI's -quick trims (default).
	EffortQuick Effort = "quick"
	// EffortDefault is core.DefaultConfig unmodified.
	EffortDefault Effort = "default"
	// EffortFull is core.PaperConfig — the paper's §IV-A settings.
	EffortFull Effort = "full"
)

// Duration is a time.Duration with a human-readable JSON encoding
// ("30s", "5m") so specs read the same in requests and flags.
type Duration time.Duration

// MarshalJSON encodes the duration as a Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(`"` + time.Duration(d).String() + `"`), nil
}

// UnmarshalJSON accepts a Go duration string or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	s := strings.TrimSpace(string(data))
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		dur, err := time.ParseDuration(s[1 : len(s)-1])
		if err != nil {
			return fmt.Errorf("service: bad duration %s: %w", s, err)
		}
		*d = Duration(dur)
		return nil
	}
	// Strict integer parse: Sscanf-style prefix matching would read
	// "1.5" as 1ns, silently accepting a malformed timeout.
	ns, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return fmt.Errorf("service: bad duration %s (want a duration string or integer nanoseconds)", s)
	}
	*d = Duration(ns)
	return nil
}

// JobSpec describes one job on the wire. Exactly one of Circuit
// (a built-in benchmark name) and Netlist (inline netlist text, format
// named by Format) picks the input circuit. The zero values of the
// optional fields select the library defaults, so a spec is minimal to
// write by hand.
type JobSpec struct {
	Kind JobKind `json:"kind"`

	// Circuit names a built-in benchmark (c432 ... c7552, rand10k, ...).
	Circuit string `json:"circuit,omitempty"`
	// Netlist is inline netlist text; Format names its format ("bench"
	// or "aag"; binary AIGER is not inline-safe).
	Netlist string `json:"netlist,omitempty"`
	Format  string `json:"format,omitempty"`

	// KeySize is the locking key budget (lock/harden/pipeline). 0 means
	// 32.
	KeySize int `json:"key_size,omitempty"`
	// Seed drives every random choice of the job. Results are
	// bit-identical to a direct library call with the same seed. 0 means
	// 1.
	Seed int64 `json:"seed,omitempty"`
	// Lockers is the locking chain (Config.Lockers); empty means plain
	// RLL.
	Lockers []string `json:"lockers,omitempty"`
	// EvalAttacks is the Eq. 1 search objective's attack ensemble
	// (harden/pipeline; Config.EvalAttacks). Empty means the OMLA proxy
	// alone.
	EvalAttacks []string `json:"eval_attacks,omitempty"`
	// Attacks are the evaluation attacks: the measured attacks of a
	// KindAttack job, or the baseline-vs-hardened report of a
	// KindPipeline job.
	Attacks []string `json:"attacks,omitempty"`
	// Recipe is the defender's synthesis recipe handed to
	// self-referencing attacks (KindAttack; semicolon script, "" =
	// resyn2).
	Recipe string `json:"recipe,omitempty"`
	// Key is the true key of a KindAttack job's netlist, as a 0/1
	// string.
	Key string `json:"key,omitempty"`

	// Effort selects the framework budget ("" = quick).
	Effort Effort `json:"effort,omitempty"`
	// Parallelism is the requested engine-worker budget. The scheduler
	// clamps it to the shared pool size; 0 requests a single slot.
	// Results do not depend on it.
	Parallelism int `json:"parallelism,omitempty"`
	// Timeout bounds the job's run time server-side (the CLI's
	// -timeout); 0 means no limit. A timed-out job finishes as canceled.
	Timeout Duration `json:"timeout,omitempty"`
}

// JobState is a job's position in its lifecycle.
type JobState string

// Job states. Queued and waiting jobs have not consumed pool slots yet;
// done/failed/canceled are terminal.
const (
	StateQueued   JobState = "queued"   // accepted, not yet asking for slots
	StateWaiting  JobState = "waiting"  // in line for pool slots
	StateRunning  JobState = "running"  // executing on granted slots
	StateDone     JobState = "done"     // finished with a result
	StateFailed   JobState = "failed"   // finished with an error
	StateCanceled JobState = "canceled" // canceled or timed out
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// AttackAccuracy is one attack's measured key-recovery accuracy.
type AttackAccuracy struct {
	Attack   string  `json:"attack"`
	Accuracy float64 `json:"accuracy"`
}

// AttackOutcome is one row of a pipeline job's baseline-vs-hardened
// report.
type AttackOutcome struct {
	Attack   string  `json:"attack"`
	Baseline float64 `json:"baseline"` // accuracy on the resyn2-synthesized netlist
	Hardened float64 `json:"hardened"` // accuracy on the S_ALMOST-synthesized netlist
}

// JobResult is a completed job's outcome. It contains only
// deterministically ordered, plainly encoded values — no maps, no
// timestamps — so two runs of the same spec produce byte-identical
// JSON, which is what the soak harness asserts over the wire.
type JobResult struct {
	Kind JobKind `json:"kind"`
	// Recipe is S_ALMOST as a semicolon script (harden/pipeline).
	Recipe string `json:"recipe,omitempty"`
	// Accuracy is the headline proxy accuracy of Recipe.
	Accuracy float64 `json:"accuracy,omitempty"`
	// Accuracies are the search objective's per-attack accuracies in
	// canonical registration order (harden/pipeline), or the measured
	// accuracies in request order (attack jobs).
	Accuracies []AttackAccuracy `json:"accuracies,omitempty"`
	// Key is the correct key as a 0/1 string (lock/harden/pipeline).
	Key string `json:"key,omitempty"`
	// Netlist is the output netlist in BENCH text (locked netlist for
	// lock jobs, hardened netlist for harden/pipeline).
	Netlist string `json:"netlist,omitempty"`
	// Lockers is the locking chain applied, in order.
	Lockers []string `json:"lockers,omitempty"`
	// Attacks is the pipeline job's baseline-vs-hardened report, in
	// request order.
	Attacks []AttackOutcome `json:"attacks,omitempty"`
}

// JobStatus is the wire view of a job's current state.
type JobStatus struct {
	ID    string   `json:"id"`
	Kind  JobKind  `json:"kind"`
	State JobState `json:"state"`
	// Phase is the last pipeline phase the job reported ("" before the
	// first event).
	Phase core.Phase `json:"phase,omitempty"`
	// Granted is the pool budget the job runs with (0 until admitted).
	Granted int `json:"granted,omitempty"`
	// Events counts stream events emitted so far; Dropped counts events
	// aged out of the replay buffer.
	Events  int `json:"events"`
	Dropped int `json:"dropped,omitempty"`
	// Error is the failure or cancellation cause of a terminal job.
	Error string `json:"error,omitempty"`
	// Submitted/Finished are server wall-clock times (status metadata
	// only — never part of JobResult, which must stay bit-stable).
	Submitted time.Time  `json:"submitted"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// Stream event types.
const (
	// StreamStateChange announces a job state transition; State is set.
	StreamStateChange = "state"
	// StreamProgress carries one pipeline Event.
	StreamProgress = "event"
	// StreamGap reports events aged out of the replay buffer before this
	// subscriber caught up; Dropped is set.
	StreamGap = "gap"
	// StreamResult is terminal: the job finished and Result is set.
	StreamResult = "result"
	// StreamError is terminal: the job failed or was canceled; Error
	// and State are set.
	StreamError = "error"
)

// StreamEvent is one line of a job's NDJSON event stream. Seq numbers
// are dense per job, so a client can resume a broken stream with
// ?from=<next seq> and miss nothing.
type StreamEvent struct {
	Seq     int         `json:"seq"`
	Type    string      `json:"type"`
	Event   *core.Event `json:"event,omitempty"`
	State   JobState    `json:"state,omitempty"`
	Dropped int         `json:"dropped,omitempty"`
	Result  *JobResult  `json:"result,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// Terminal reports whether this event ends the stream.
func (ev StreamEvent) Terminal() bool {
	return ev.Type == StreamResult || ev.Type == StreamError
}

// Stats is the /stats endpoint's snapshot.
type Stats struct {
	// QueueDepth counts jobs accepted but not yet running (queued +
	// waiting); Running counts jobs holding pool slots.
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	// PoolSize/InFlight describe the shared worker pool: InFlight is the
	// aggregate granted budget, never above PoolSize.
	PoolSize int `json:"pool_size"`
	InFlight int `json:"in_flight"`
	Waiting  int `json:"waiting"`
	// Lifetime counters.
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Canceled  int64 `json:"canceled"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Jobs lists per-job statuses in submission order.
	Jobs []JobStatus `json:"jobs,omitempty"`
}

// Spec validation errors wrap ErrBadSpec so the server can map them to
// HTTP 400.
var ErrBadSpec = errors.New("invalid job spec")

func badSpec(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// Validate checks the spec before it is accepted into the queue, so a
// malformed job is rejected at submit time instead of failing minutes
// later on a worker.
func (s JobSpec) Validate() error {
	switch s.Kind {
	case KindLock, KindAttack, KindHarden, KindPipeline:
	default:
		return badSpec("unknown kind %q (want lock, attack, harden, or pipeline)", s.Kind)
	}
	if (s.Circuit == "") == (s.Netlist == "") {
		return badSpec("exactly one of circuit and netlist must be set")
	}
	if s.Circuit != "" && !slices.Contains(circuits.Names(), s.Circuit) &&
		!slices.Contains(circuits.SyntheticNames(), s.Circuit) {
		return badSpec("unknown circuit %q (built-in: %s; synthetic: %s)", s.Circuit,
			strings.Join(circuits.Names(), ", "), strings.Join(circuits.SyntheticNames(), ", "))
	}
	if s.Netlist != "" {
		switch s.Format {
		case "bench", "aag":
		case "":
			return badSpec("format is required with an inline netlist (bench or aag)")
		default:
			return badSpec("unknown inline netlist format %q (want bench or aag)", s.Format)
		}
	}
	switch s.Effort {
	case "", EffortSmoke, EffortQuick, EffortDefault, EffortFull:
	default:
		return badSpec("unknown effort %q (want smoke, quick, default, or full)", s.Effort)
	}
	if s.KeySize < 0 {
		return badSpec("key_size must be non-negative")
	}
	if s.Timeout < 0 {
		return badSpec("timeout must be non-negative")
	}
	for _, name := range s.Lockers {
		if _, ok := core.LookupLocker(name); !ok {
			return badSpec("unknown locker %q (registered: %s)", name, strings.Join(core.Lockers(), ", "))
		}
	}
	for _, name := range append(append([]string{}, s.EvalAttacks...), s.Attacks...) {
		if _, ok := core.LookupAttacker(name); !ok {
			return badSpec("unknown attack %q (registered: %s)", name, strings.Join(core.Attackers(), ", "))
		}
	}
	switch s.Kind {
	case KindAttack:
		if len(s.Attacks) == 0 {
			return badSpec("attack jobs need at least one entry in attacks")
		}
		if strings.Trim(s.Key, "01") != "" || s.Key == "" {
			return badSpec("attack jobs need the true key as a 0/1 string")
		}
	case KindLock, KindHarden, KindPipeline:
		if s.Key != "" {
			return badSpec("key is only meaningful on attack jobs")
		}
	}
	return nil
}

// sortStatuses orders job statuses by ID (IDs are zero-padded sequence
// numbers, so this is submission order).
func sortStatuses(js []JobStatus) {
	sort.Slice(js, func(i, j int) bool { return js[i].ID < js[j].ID })
}
