package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

// newTestServer stands up a scheduler behind a real HTTP listener and
// returns a client for it.
func newTestServer(t *testing.T, cfg SchedulerConfig) (*Scheduler, *Client) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	sched := NewScheduler(ctx, cfg)
	ts := httptest.NewServer(NewServer(sched))
	t.Cleanup(func() {
		ts.Close()
		sched.Close()
		cancel()
	})
	return sched, NewClientHTTP(ts.URL, ts.Client())
}

// TestServerLockRoundTrip drives the whole protocol for one job:
// submit, status, watch, result — and checks the served result is
// byte-for-byte what a direct library call produces.
func TestServerLockRoundTrip(t *testing.T) {
	_, client := newTestServer(t, SchedulerConfig{PoolSize: 2})
	ctx := context.Background()
	if err := client.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	spec := JobSpec{Kind: KindLock, Circuit: "c432", KeySize: 10, Seed: 42}
	id, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "job-") {
		t.Fatalf("id = %q", id)
	}

	events := 0
	res, err := client.Wait(ctx, id, func(StreamEvent) error { events++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if events < 3 {
		t.Fatalf("stream delivered only %d events", events)
	}
	direct, err := RunSpec(ctx, spec, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != direct.Key || res.Netlist != direct.Netlist {
		t.Fatal("served lock result differs from the direct library call")
	}

	st, err := client.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Kind != KindLock {
		t.Fatalf("status = %+v", st)
	}
	res2, st2, err := client.Result(ctx, id)
	if err != nil || res2 == nil || !st2.State.Terminal() {
		t.Fatalf("result fetch: %v, res=%v, state=%s", err, res2 != nil, st2.State)
	}
	jobs, err := client.Jobs(ctx)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs list: %v, %d entries", err, len(jobs))
	}
	stats, err := client.Stats(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 1 || stats.Accepted != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestServerErrors checks that the error taxonomy crosses the wire:
// sentinel errors match with errors.Is on the client side.
func TestServerErrors(t *testing.T) {
	sched, client := newTestServer(t, SchedulerConfig{PoolSize: 1})
	ctx := context.Background()

	if _, err := client.Submit(ctx, JobSpec{Kind: "bogus"}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad spec over the wire: %v", err)
	}
	// An unknown circuit name is refused at submit time (400 over the
	// wire), not queued to fail later on a worker.
	unknown := JobSpec{Kind: KindLock, Circuit: "c999"}
	if _, err := sched.Submit(unknown); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown circuit: Scheduler.Submit returned %v, want ErrBadSpec", err)
	}
	if _, err := client.Submit(ctx, unknown); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown circuit over the wire: %v", err)
	}
	if _, err := client.Status(ctx, "job-999999"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("missing job over the wire: %v", err)
	}
	if err := client.Cancel(ctx, "job-999999"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("cancel of missing job: %v", err)
	}
	if _, err := client.Watch(ctx, "job-999999", 0, nil); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("watch of missing job: %v", err)
	}
}

// TestServerCancelMidFlight cancels a running harden over the wire and
// checks the stream ends with a canceled terminal event.
func TestServerCancelMidFlight(t *testing.T) {
	sched, client := newTestServer(t, SchedulerConfig{PoolSize: 1})
	ctx := context.Background()
	id, err := client.Submit(ctx, JobSpec{Kind: KindHarden, Circuit: "c432",
		KeySize: 6, Seed: 9, Effort: EffortSmoke})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, sched, id, StateRunning)
	if err := client.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	term, err := client.Watch(ctx, id, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if term.Type != StreamError || term.State != StateCanceled {
		t.Fatalf("terminal event = %+v, want canceled", term)
	}
	if _, err := client.Wait(ctx, id, nil); err == nil {
		t.Fatal("Wait on a canceled job should error")
	}
}

// TestServerStreamResume checks ?from=N: a second watch starting past
// the early events sees only the tail, with matching sequence numbers.
func TestServerStreamResume(t *testing.T) {
	_, client := newTestServer(t, SchedulerConfig{PoolSize: 1})
	ctx := context.Background()
	id, err := client.Submit(ctx, JobSpec{Kind: KindLock, Circuit: "c432", KeySize: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var all []StreamEvent
	term, err := client.Watch(ctx, id, 0, func(ev StreamEvent) error {
		all = append(all, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resumeAt := term.Seq - 1
	var tail []StreamEvent
	if _, err := client.Watch(ctx, id, resumeAt, func(ev StreamEvent) error {
		tail = append(tail, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || tail[0].Seq != resumeAt || tail[1].Seq != term.Seq {
		t.Fatalf("resume from %d returned %d events (%+v)", resumeAt, len(tail), tail)
	}
}

// TestServerStreamFromBeyondEnd is the remote half of the cursor-clamp
// regression: GET /jobs/{id}/events?from=999999 on a finished job must
// not panic the handler — the server ends the (empty) stream instead of
// holding the connection, and the client surfaces the missing terminal
// event as an error.
func TestServerStreamFromBeyondEnd(t *testing.T) {
	_, client := newTestServer(t, SchedulerConfig{PoolSize: 1})
	ctx := context.Background()
	id, err := client.Submit(ctx, JobSpec{Kind: KindLock, Circuit: "c432", KeySize: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, id, nil); err != nil {
		t.Fatal(err)
	}
	var got []StreamEvent
	_, err = client.Watch(ctx, id, 999999, func(ev StreamEvent) error {
		got = append(got, ev)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "without a terminal event") {
		t.Fatalf("watch beyond the end: err = %v, want a no-terminal-event stream end", err)
	}
	if len(got) != 0 {
		t.Fatalf("watch beyond the end delivered %d events: %+v", len(got), got)
	}
	// The job itself is untouched and still queryable.
	if st, err := client.Status(ctx, id); err != nil || st.State != StateDone {
		t.Fatalf("status after bad watch: %+v, %v", st, err)
	}
}
