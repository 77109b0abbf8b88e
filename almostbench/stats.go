package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tailIndex is the sorted index of the highest percentile that still
// has at least 10 samples beyond it (0 when there are fewer than 11).
func tailIndex(n int) int {
	if n < 11 {
		return 0
	}
	return n - 11
}

func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[tailIndex(len(xs))]
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// subSeed derives the seed of operation i from the run seed
// (splitmix64), kept positive and nonzero.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s;", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// detStore remembers the deterministic outcome of every operation of a
// (workload, seed) across runs of one built program, so a later run of
// the same seed that disagrees is reported as a determinism bug instead
// of being averaged away. Each build has records of its own, under the
// SHA-256 of the executable: a run of changed code never compares its
// outputs with those of other code. Each (workload, seed) has a file of
// its own, so a run reads only its own record.
type detStore struct {
	path  string
	seen  map[string]string
	drift []string
}

// detDir holds the determinism records.
const detDir = ".bench_build/determinism"

func openDetStore(workload string, seed int64) (*detStore, error) {
	build, err := executableDigest()
	if err != nil {
		return nil, err
	}
	st := &detStore{
		path: filepath.Join(detDir, build, fmt.Sprintf("%s-%d.json", workload, seed)),
		seen: map[string]string{},
	}
	data, err := os.ReadFile(st.path)
	if errors.Is(err, fs.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &st.seen); err != nil {
		return nil, fmt.Errorf("%s: %w", st.path, err)
	}
	return st, nil
}

// executableDigest identifies the running program by the SHA-256 of
// its executable file.
func executableDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// record stores the digest of one operation, or reports drift when a
// previous run of the same seed recorded a different one.
func (st *detStore) record(key, digest string) {
	if old, ok := st.seen[key]; ok && old != digest {
		st.drift = append(st.drift, fmt.Sprintf("determinism bug: %s in %s was %s in an earlier run, now %s", key, st.path, old, digest))
		return
	}
	st.seen[key] = digest
}

func (st *detStore) save() error {
	data, err := json.Marshal(st.seen)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(st.path), 0o755); err != nil {
		return err
	}
	tmp := st.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, st.path)
}
