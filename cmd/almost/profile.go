package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Active profile finalizers, keyed for unregistration. The signal path
// in main calls finalizeProfiles before a forced exit so a wedged run
// killed by a second Ctrl-C still leaves valid -cpuprofile/-memprofile
// files; each stop function is a sync.Once, so the normal deferred stop
// and the signal path can both fire without double-finalizing.
var (
	profileMu    sync.Mutex
	profileSeq   int
	profileStops = map[int]func(){}
)

func registerProfileStop(stop func()) (unregister func()) {
	profileMu.Lock()
	defer profileMu.Unlock()
	profileSeq++
	id := profileSeq
	profileStops[id] = stop
	return func() {
		profileMu.Lock()
		defer profileMu.Unlock()
		delete(profileStops, id)
	}
}

// finalizeProfiles flushes every active profile. Safe to call from the
// signal goroutine while a command is mid-run.
func finalizeProfiles() {
	profileMu.Lock()
	stops := make([]func(), 0, len(profileStops))
	for _, stop := range profileStops {
		stops = append(stops, stop)
	}
	profileMu.Unlock()
	for _, stop := range stops {
		stop()
	}
}

// profileFlags registers the shared -cpuprofile/-memprofile flags on the
// compute-heavy subcommands (tune and pipeline), so their runs can be
// profiled without a rebuild.
func profileFlags(fs *flag.FlagSet) (cpu, mem *string) {
	cpu = fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem = fs.String("memprofile", "", "write a heap profile to this file on exit")
	return cpu, mem
}

// startProfiles begins CPU profiling (when cpu is non-empty) and returns
// a stop function that finishes the CPU profile and writes the heap
// profile (when mem is non-empty). The stop function is idempotent
// (sync.Once) and registered with the signal path, so whichever of the
// command's defer and a forced-exit signal runs first finalizes the
// files, and the other is a no-op; profile-write failures are reported
// to stderr rather than clobbering the command's own error.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	var once sync.Once
	var unregister func()
	finalize := func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "almost: -cpuprofile: %v\n", err)
				}
			}
			if mem != "" {
				f, err := os.Create(mem)
				if err != nil {
					fmt.Fprintf(os.Stderr, "almost: -memprofile: %v\n", err)
					return
				}
				runtime.GC() // materialize the steady-state heap before the snapshot
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "almost: -memprofile: %v\n", err)
				}
				if err := f.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "almost: -memprofile: %v\n", err)
				}
			}
		})
	}
	unregister = registerProfileStop(finalize)
	return func() {
		finalize()
		unregister()
	}, nil
}
