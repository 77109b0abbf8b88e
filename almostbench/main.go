// Command almostbench is the repository benchmark. It drives seeded
// workloads through the public entry points of core, service and the
// layer packages, checks every output, and prints its metrics as one
// JSON object on the last line of standard output:
//
//	bash almostbench/run.sh --workload recipe-eval --seed 1 --seconds 50 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics
// of BENCHMARK.json; with --trace 1 it runs a fixed slice of the same
// workload twice (untraced, then with observers and spans), requires
// identical outputs, replays the observed work through each layer and
// reports the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload.
type workload struct {
	name string
	// setup builds the workload's seeded inputs and fixtures; the
	// returned instance is torn down with close.
	setup func(ctx context.Context, seed int64) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// run executes the untraced, time-boxed measurement.
	run(ctx context.Context, d time.Duration) (*runResult, error)
	// trace executes the fixed traced slice and its layer replays.
	trace(ctx context.Context, det *detStore) (*traceResult, error)
	close()
}

var workloads = []workload{
	{name: "recipe-eval", setup: setupEval},
	{name: "served-mix", setup: setupServed},
}

// Set-up runs at least setupRepeats times and for at least setupTime;
// setup_s is the median. A set-up can take well under a millisecond,
// and a median over a few milliseconds still moved with whatever else
// the host did in that instant.
const (
	setupRepeats = 41
	setupTime    = 2 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload name (recipe-eval | served-mix)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 50, "measurement time box in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "almostbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	rep, err := bench(context.Background(), wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "almostbench: %v\n", err)
		os.Exit(1)
	}
	printTable(rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "almostbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func bench(ctx context.Context, wl *workload, seed int64, d time.Duration, traced bool) (*report, error) {
	var inst instance
	var setups []float64
	for start := time.Now(); len(setups) < setupRepeats || time.Since(start) < setupTime; {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(ctx, seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	if traced {
		det, err := openDetStore(wl.name, seed)
		if err != nil {
			return nil, err
		}
		tr, err := inst.trace(ctx, det)
		if err != nil {
			return nil, err
		}
		if err := det.save(); err != nil {
			return nil, err
		}
		rep := &report{Attempted: tr.attempted, Failed: tr.failed, Metrics: tr.metrics}
		rep.Correct = tr.failed == 0 && len(tr.problems)+len(det.drift) == 0
		for _, p := range append(tr.problems, det.drift...) {
			fmt.Fprintln(os.Stderr, "almostbench:", p)
		}
		return rep, nil
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	rss := startRSS()
	t0 := time.Now()
	res, err := inst.run(ctx, d)
	if err != nil {
		rss.finish()
		return nil, err
	}
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	rssPeaks, err := rss.finish()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	ops := float64(res.done)
	if res.done == 0 {
		return nil, fmt.Errorf("no operation completed in %v", d)
	}

	// Correctness checks run after the timed part, and so does reading
	// the determinism record, which would otherwise count in the RSS.
	det, err := openDetStore(wl.name, seed)
	if err != nil {
		return nil, err
	}
	problems := res.check(ctx, det)
	if err := det.save(); err != nil {
		return nil, err
	}
	failed := res.failed + len(problems)
	for _, p := range append(problems, det.drift...) {
		fmt.Fprintln(os.Stderr, "almostbench:", p)
	}
	m := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"run_s":        {mean(res.opSeconds), "s"},
		"jobs_per_s":   {ops / wall, "1/s"},
		"cpu_s":        {cpu / ops, "s"},
		"allocs_m":     {float64(ms1.Mallocs-ms0.Mallocs) / 1e6 / ops, "1e6"},
		"alloc_gb":     {float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e9 / ops, "GB"},
		"peak_rss_mb":  {tail(rssPeaks), "MB"},
		"lock_p50_s":   {median(res.lockSeconds), "s"},
		"lock_tail_s":  {tail(res.lockSeconds), "s"},
		"attack_p50_s": {median(res.attackSeconds), "s"},
	}
	fmt.Fprintf(os.Stderr, "almostbench: %d ops in %.2fs; %d lock samples (tail = sorted[%d]); %d RSS windows; failed_ratio %.4f\n",
		res.done, wall, len(res.lockSeconds), tailIndex(len(res.lockSeconds)), len(rssPeaks), float64(failed)/float64(res.done+res.failed))
	return &report{
		Correct:   failed == 0 && len(det.drift) == 0,
		Attempted: res.done + res.failed,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// runResult is what an untraced run measured.
type runResult struct {
	done, failed  int
	opSeconds     []float64 // per completed top-level operation
	lockSeconds   []float64
	attackSeconds []float64 // per attack job, or per operation's attack stage
	// check runs the deferred correctness checks, records every
	// operation's outputs in the determinism store, and returns one entry
	// per failed check.
	check func(ctx context.Context, det *detStore) []string
}

// traceResult is what a traced run measured.
type traceResult struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func printTable(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-28s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	if p, ok := rep.Metrics["quality.proxy_acc_pct"]; ok {
		fmt.Fprintf(&sb, "  (proxy_dev_pp %.3g, attack_dev_pp %.3g, area_overhead_pct %.3g, delay_overhead_pct %.3g)\n",
			p.Value-50, rep.Metrics["quality.attack_acc_pct"].Value-50,
			(rep.Metrics["quality.area_ratio"].Value-1)*100, (rep.Metrics["quality.delay_ratio"].Value-1)*100)
	}
	fmt.Fprintf(os.Stderr, "almostbench: correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, sb.String())
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// rssSampler records the peak resident set of the process in each
// window of rssWindow, sampling every rssEvery.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64
	err        error
}

const (
	rssEvery  = 20 * time.Millisecond
	rssWindow = time.Second
)

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var peak float64
		start := time.Now()
		for {
			mb, err := residentMB()
			if err != nil {
				s.err = err
				return
			}
			peak = max(peak, mb)
			select {
			case <-s.stop:
				s.peaks = append(s.peaks, peak)
				return
			case now := <-tick.C:
				if now.Sub(start) >= rssWindow {
					s.peaks = append(s.peaks, peak)
					peak, start = 0, now
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the per-window peaks in MB.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.peaks, s.err
}

// residentMB reads the process's current resident set.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}
