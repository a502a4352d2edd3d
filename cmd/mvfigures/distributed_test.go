package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The distributed-sweep binary is built once and shared by the tests in
// this file; each builds identically, so one artifact serves all.
var (
	buildOnce sync.Once
	builtBin  string
	buildErr  error
)

func mvfiguresBin(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build subprocess binary")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "mvfigures-bin-")
		if err != nil {
			buildErr = err
			return
		}
		builtBin = filepath.Join(dir, "mvfigures")
		if out, err := exec.Command(goBin, "build", "-o", builtBin, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBin
}

// TestDistributedFlagValidation: meaningless flag combinations are rejected
// at parse time with actionable messages, before any work or I/O starts.
func TestDistributedFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test; skipped in -short")
	}
	bin := mvfiguresBin(t)
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"distributed without storedir", []string{"-distributed"}, "needs -storedir"},
		{"zero workers", []string{"-distributed", "-storedir", t.TempDir(), "-workers", "0"}, "-workers must be >= 1"},
		{"workers without distributed", []string{"-workers", "3"}, "only applies with -distributed"},
		{"zero jobs", []string{"-jobs", "0"}, "-jobs must be >= 1"},
		{"zero seed", []string{"-seed", "0"}, "-seed must be >= 1"},
		{"zero reps", []string{"-reps", "0"}, "-reps must be >= 1"},
		{"negative reps", []string{"-reps", "-3"}, "-reps must be >= 1"},
		{"zero grid", []string{"-grid", "0"}, "-grid must be >= 1"},
		{"zero scale", []string{"-scale", "0"}, "-scale must be >= 1"},
		{"negative scale", []string{"-scale", "-5"}, "-scale must be >= 1"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("args %v accepted; output:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("args %v: output lacks %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// TestChaosDistributedByteIdentical is the chaos acceptance test for the
// distributed sweep: a coordinator supervising four worker processes has at
// least two of them SIGKILLed mid-sweep. The coordinator must restart them,
// stale claims must be taken over, every unit must end terminal, and the
// assembled CSVs must be byte-identical to a serial uncached reference run
// — crashes may cost recomputation, never correctness.
func TestChaosDistributedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test; skipped in -short")
	}
	bin := mvfiguresBin(t)
	tmp := t.TempDir()
	workload := []string{"-quiet", "-reps", "2", "-grid", "20", "-scale", "20", "-seed", "1", "-jobs", "2"}

	refDir := filepath.Join(tmp, "ref")
	ref := exec.Command(bin, append(workload, "-nocache", "-out", refDir)...)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}

	storeDir := filepath.Join(tmp, "store")
	outDir := filepath.Join(tmp, "out")
	coord := exec.Command(bin, append(workload,
		"-distributed", "-workers", "4", "-storedir", storeDir, "-out", outDir)...)
	var errBuf bytes.Buffer
	coord.Stderr = &errBuf
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatalf("start coordinator: %v", err)
	}

	// Harvest worker pids (including restarts) and the full transcript from
	// the coordinator's stdout as it streams.
	var mu sync.Mutex
	var pids []int
	var transcript bytes.Buffer
	pidLine := regexp.MustCompile(`^worker \d+ (?:re)?started pid=(\d+)`)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			transcript.WriteString(line + "\n")
			if m := pidLine.FindStringSubmatch(line); m != nil {
				var pid int
				_, _ = fmt.Sscanf(m[1], "%d", &pid)
				pids = append(pids, pid)
			}
			mu.Unlock()
		}
	}()

	// Kill the most recently observed not-yet-killed worker each time the
	// count of stored entries crosses a threshold, so the SIGKILLs land
	// mid-sweep with units both durable and in flight.
	storedCount := func() int {
		entries, _ := filepath.Glob(filepath.Join(storeDir, "objects", "*", "*.mvr"))
		return len(entries)
	}
	killed := map[int]bool{}
	killNext := func(minStored int) bool {
		deadline := time.Now().Add(2 * time.Minute)
		for time.Now().Before(deadline) {
			if storedCount() >= minStored {
				mu.Lock()
				var victim int
				for i := len(pids) - 1; i >= 0; i-- {
					if !killed[pids[i]] {
						victim = pids[i]
						break
					}
				}
				mu.Unlock()
				if victim != 0 && syscall.Kill(victim, syscall.SIGKILL) == nil {
					killed[victim] = true
					t.Logf("SIGKILLed worker pid=%d at %d stored entries", victim, storedCount())
					return true
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		return false
	}
	kills := 0
	if killNext(1) {
		kills++
	}
	if killNext(storedCount() + 2) {
		kills++
	}

	waitErr := coord.Wait()
	<-scanDone
	mu.Lock()
	out := transcript.String()
	mu.Unlock()
	t.Logf("coordinator stdout:\n%s", out)
	if errBuf.Len() > 0 {
		t.Logf("coordinator stderr:\n%s", errBuf.String())
	}
	if waitErr != nil {
		t.Fatalf("coordinator failed: %v", waitErr)
	}
	if kills < 2 {
		t.Fatalf("only %d workers SIGKILLed; the chaos premise needs at least 2", kills)
	}

	// Every unit terminal: the summary reports no unit left open, and no
	// unit was dead-lettered (crashes leave stale claims, not failures).
	summary := regexp.MustCompile(`distributed: (\d+) done, (\d+) dead-lettered, \d+ retried, (\d+) open, (\d+) worker restarts`)
	m := summary.FindStringSubmatch(out)
	if m == nil {
		t.Fatal("coordinator printed no distributed summary")
	}
	if m[2] != "0" {
		t.Errorf("%s units dead-lettered by crashes; takeover should recompute, not dead-letter", m[2])
	}
	if m[3] != "0" {
		t.Errorf("%s units left open at assembly", m[3])
	}
	if m[4] == "0" {
		t.Errorf("no worker restarts despite %d SIGKILLs", kills)
	}

	refs, err := filepath.Glob(filepath.Join(refDir, "*.csv"))
	if err != nil || len(refs) == 0 {
		t.Fatalf("reference CSVs: %v (found %d)", err, len(refs))
	}
	for _, refPath := range refs {
		name := filepath.Base(refPath)
		want, err := os.ReadFile(refPath)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(outDir, name))
		if err != nil {
			t.Errorf("%s missing after chaos run: %v", name, err)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs between serial reference and chaos run", name)
		}
	}
}
