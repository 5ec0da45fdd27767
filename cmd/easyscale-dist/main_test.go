package main

import (
	"bufio"
	"bytes"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMultiProcessPhaseAndResume drives the multi-process mode for real: one
// coordinator OS process and separate worker OS processes over loopback TCP.
// A two-worker heterogeneous phase must verify bitwise against the in-process
// reference, and a second coordinator restoring from the first one's
// checkpoint onto a single fresh worker must verify the resumed run too.
func TestMultiProcessPhaseAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary and spawns OS processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "easyscale-dist")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ckpt := filepath.Join(dir, "job.ckpt")
	job := []string{"-model", "neumf", "-ests", "4", "-timeout", "20s"}

	// runPhase starts a coordinator on an ephemeral port, reads the address
	// it bound off its first output line, launches the workers against it,
	// and returns the coordinator's full output once everyone exited 0.
	runPhase := func(workers int, coordArgs ...string) string {
		t.Helper()
		coord := exec.Command(bin, append(append([]string{"coordinator", "-addr", "127.0.0.1:0"}, job...), coordArgs...)...)
		stdout, err := coord.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		coord.Stderr = &stderr
		if err := coord.Start(); err != nil {
			t.Fatal(err)
		}
		defer coord.Process.Kill() // no-op once Wait has reaped it
		rd := bufio.NewReader(stdout)
		first, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("coordinator banner: %v\n%s", err, stderr.String())
		}
		fields := strings.Fields(first) // "coordinator listening on ADDR, waiting ..."
		if len(fields) < 4 || fields[2] != "on" {
			t.Fatalf("unexpected coordinator banner %q", first)
		}
		addr := strings.TrimSuffix(fields[3], ",")

		procs := make([]*exec.Cmd, workers)
		outs := make([]bytes.Buffer, workers)
		for i := range procs {
			procs[i] = exec.Command(bin, append([]string{"worker", "-coord", addr}, job...)...)
			procs[i].Stdout, procs[i].Stderr = &outs[i], &outs[i]
			if err := procs[i].Start(); err != nil {
				t.Fatal(err)
			}
			defer procs[i].Process.Kill()
		}
		rest, _ := io.ReadAll(rd)
		if err := coord.Wait(); err != nil {
			t.Fatalf("coordinator: %v\n%s%s%s", err, first, rest, stderr.String())
		}
		for i, p := range procs {
			if err := p.Wait(); err != nil {
				t.Fatalf("worker %d: %v\n%s", i, err, outs[i].String())
			}
		}
		return first + string(rest)
	}

	out := runPhase(2, "-workers", "2", "-steps", "6", "-gpus", "V100:1,P100:1", "-verify", "-out", ckpt)
	if !strings.Contains(out, "BITWISE IDENTICAL") || !strings.Contains(out, "after 6 steps") {
		t.Fatalf("first phase did not verify:\n%s", out)
	}
	out = runPhase(1, "-workers", "1", "-steps", "6", "-gpus", "V100:1", "-verify", "-in", ckpt)
	if !strings.Contains(out, "BITWISE IDENTICAL") || !strings.Contains(out, "after 12 steps") {
		t.Fatalf("resumed phase did not verify:\n%s", out)
	}
}
