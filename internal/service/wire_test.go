package service

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestDurationWire checks the human-readable duration encoding both
// ways, plus the raw-nanoseconds fallback.
func TestDurationWire(t *testing.T) {
	data, err := json.Marshal(Duration(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `"1m30s"` {
		t.Fatalf("duration marshals as %s", data)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"250ms"`), &d); err != nil || d != Duration(250*time.Millisecond) {
		t.Fatalf("string form: %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1000000`), &d); err != nil || d != Duration(time.Millisecond) {
		t.Fatalf("number form: %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"yesterday"`), &d); err == nil {
		t.Fatal("bad duration should fail")
	}
	// Strict numeric parse: a float must error, not truncate to its
	// integer-prefix nanoseconds.
	if err := json.Unmarshal([]byte(`1.5`), &d); err == nil {
		t.Fatal("fractional number should fail, not decode as 1ns")
	}
}

// TestJobSpecWire round-trips a fully populated spec and pins the
// field names a minimal spec puts on the wire.
func TestJobSpecWire(t *testing.T) {
	spec := JobSpec{
		Kind: KindPipeline, Circuit: "c880", KeySize: 64, Seed: 9,
		Lockers: []string{"rll", "mux"}, EvalAttacks: []string{"omla", "scope"},
		Attacks: []string{"scope"}, Effort: EffortQuick, Parallelism: 3,
		Timeout: Duration(time.Minute),
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("spec round trip:\n in  %+v\n out %+v", spec, back)
	}

	minimal := JobSpec{Kind: KindLock, Circuit: "c432"}
	data, err = json.Marshal(minimal)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"lock","circuit":"c432"}`
	if string(data) != want {
		t.Fatalf("minimal spec wire format drifted:\n got  %s\n want %s", data, want)
	}
}

// TestJobResultWire pins the result encoding — the bytes the soak
// harness compares, so ordering and omission rules are contractual.
func TestJobResultWire(t *testing.T) {
	res := JobResult{
		Kind:   KindPipeline,
		Recipe: "balance; rewrite",
		Accuracies: []AttackAccuracy{
			{Attack: "omla", Accuracy: 0.53125},
			{Attack: "scope", Accuracy: 0.5},
		},
		Key:     "0110",
		Lockers: []string{"rll"},
		Attacks: []AttackOutcome{{Attack: "scope", Baseline: 0.75, Hardened: 0.5}},
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"pipeline","recipe":"balance; rewrite",` +
		`"accuracies":[{"attack":"omla","accuracy":0.53125},{"attack":"scope","accuracy":0.5}],` +
		`"key":"0110","lockers":["rll"],` +
		`"attacks":[{"attack":"scope","baseline":0.75,"hardened":0.5}]}`
	if string(data) != want {
		t.Fatalf("result wire format drifted:\n got  %s\n want %s", data, want)
	}
	var back JobResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("result round trip:\n in  %+v\n out %+v", res, back)
	}
}

// TestJobSpecValidate spot-checks the reject reasons a server leans on.
func TestJobSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"lock ok", JobSpec{Kind: KindLock, Circuit: "c432"}, true},
		{"no kind", JobSpec{Circuit: "c432"}, false},
		{"both inputs", JobSpec{Kind: KindLock, Circuit: "c432", Netlist: "INPUT(a)"}, false},
		{"neither input", JobSpec{Kind: KindLock}, false},
		{"unknown circuit", JobSpec{Kind: KindLock, Circuit: "c999"}, false},
		{"synthetic circuit", JobSpec{Kind: KindLock, Circuit: "rand10k"}, true},
		{"netlist without format", JobSpec{Kind: KindLock, Netlist: "INPUT(a)"}, false},
		{"bad format", JobSpec{Kind: KindLock, Netlist: "x", Format: "verilog"}, false},
		{"bad locker", JobSpec{Kind: KindLock, Circuit: "c432", Lockers: []string{"nope"}}, false},
		{"bad attack", JobSpec{Kind: KindAttack, Circuit: "c432", Key: "01", Attacks: []string{"nope"}}, false},
		{"attack without attacks", JobSpec{Kind: KindAttack, Circuit: "c432", Key: "01"}, false},
		{"attack without key", JobSpec{Kind: KindAttack, Circuit: "c432", Attacks: []string{"scope"}}, false},
		{"key on lock job", JobSpec{Kind: KindLock, Circuit: "c432", Key: "01"}, false},
		{"bad effort", JobSpec{Kind: KindHarden, Circuit: "c432", Effort: "heroic"}, false},
		{"negative timeout", JobSpec{Kind: KindLock, Circuit: "c432", Timeout: -1}, false},
		{"attack ok", JobSpec{Kind: KindAttack, Circuit: "c432", Key: "0101",
			Attacks: []string{"scope"}}, true},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation should fail", tc.name)
		}
	}
}

// TestConfigFromEnv checks the env-var discipline: defaults when unset,
// values when set, loud errors when malformed.
func TestConfigFromEnv(t *testing.T) {
	cfg, err := ConfigFromEnv(func(string) (string, bool) { return "", false })
	if err != nil || cfg.Addr != DefaultAddr {
		t.Fatalf("defaults: %+v, %v", cfg, err)
	}
	env := map[string]string{
		EnvAddr: "0.0.0.0:8080", EnvPoolSize: "8", EnvQueueLimit: "64", EnvEventBuffer: "128",
		EnvHistoryLimit: "32",
	}
	lookup := func(k string) (string, bool) { v, ok := env[k]; return v, ok }
	cfg, err = ConfigFromEnv(lookup)
	if err != nil {
		t.Fatal(err)
	}
	want := ServerConfig{Addr: "0.0.0.0:8080",
		Scheduler: SchedulerConfig{PoolSize: 8, QueueLimit: 64, EventBuffer: 128, HistoryLimit: 32}}
	if cfg != want {
		t.Fatalf("env config = %+v, want %+v", cfg, want)
	}
	env[EnvPoolSize] = "lots"
	if _, err := ConfigFromEnv(lookup); err == nil {
		t.Fatal("malformed int should error")
	}
}
