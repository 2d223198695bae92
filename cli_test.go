package dacpara

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the command-line tools and drives the full
// workflow: generate a benchmark, rewrite it, verify it, inspect it.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, b)
		}
		return out
	}
	dacparaBin := build("dacpara")
	benchgenBin := build("benchgen")
	cecBin := build("cec")
	aigstatBin := build("aigstat")

	work := t.TempDir()
	run := func(name string, args ...string) string {
		cmd := exec.Command(name, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// exitCode runs a command that must fail and returns its exit code.
	exitCode := func(name string, args ...string) int {
		out, err := exec.Command(name, args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("%s %v: want a failing exit, got %v\n%s", name, args, err, out)
		}
		return ee.ExitCode()
	}

	// benchgen writes the generated circuit as binary AIGER, and needs
	// -out to know where.
	run(benchgenBin, "-name", "voter", "-scale", "tiny", "-out", work)
	voter := filepath.Join(work, "voter.aig")
	written, err := os.ReadFile(voter)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes bytes.Buffer
	if err := want.WriteBinary(&wantBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, wantBytes.Bytes()) {
		t.Fatalf("benchgen wrote %d bytes that are not the generated voter's binary AIGER", len(written))
	}
	if code := exitCode(benchgenBin, "-name", "voter", "-scale", "tiny"); code != 2 {
		t.Fatalf("benchgen without -out: exit %d, want 2", code)
	}

	// aigstat reads it back.
	out := run(aigstatBin, "-levels", voter)
	if !strings.Contains(out, "pi=63") {
		t.Fatalf("aigstat output:\n%s", out)
	}

	// aigstat -json prints the job status's field names.
	st := want.Stats()
	wantJSON := fmt.Sprintf(`{"file":%q,"pi":%d,"po":%d,"and":%d,"delay":%d}`+"\n", voter, st.PIs, st.POs, st.Ands, st.Delay)
	if out := run(aigstatBin, "-json", voter); out != wantJSON {
		t.Fatalf("aigstat -json printed %s, want %s", out, wantJSON)
	}

	// dacpara rewrites the file and verifies.
	opt := filepath.Join(work, "voter_opt.aig")
	out = run(dacparaBin, "-in", voter, "-out", opt, "-engine", "dacpara", "-verify")
	if !strings.Contains(out, "equivalence check passed") {
		t.Fatalf("dacpara output:\n%s", out)
	}

	// An output name that is not AIGER's is refused before the run.
	bad := filepath.Join(work, "voter_opt.v")
	if code := exitCode(dacparaBin, "-in", voter, "-out", bad); code != 2 {
		t.Fatalf("dacpara -out %s: exit %d, want 2", bad, code)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("dacpara -out %s left a file behind (%v)", bad, err)
	}

	// cec agrees that input and output are equivalent.
	out = run(cecBin, voter, opt)
	if !strings.Contains(out, "equivalent") {
		t.Fatalf("cec output:\n%s", out)
	}

	// The generator listing includes the suite.
	out = run(dacparaBin, "-list", "-scale", "tiny")
	for _, want := range []string{"mult", "sixteen", "hyp"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list misses %s:\n%s", want, out)
		}
	}
}
