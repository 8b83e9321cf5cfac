package main

import (
	"bytes"
	"strings"
	"testing"
)

// runCLI runs the command in process and returns its exit code and
// both output streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestEveryExperimentIsListed renders -h, -list-experiments and the
// unknown-name error, and requires every experiment in each of them.
func TestEveryExperimentIsListed(t *testing.T) {
	exps := experiments(&inputs{})

	code, _, help := runCLI("-h")
	if code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	var usage string
	lines := strings.Split(help, "\n")
	for i, l := range lines {
		if strings.TrimSpace(l) == "-exp string" && i+1 < len(lines) {
			usage = strings.TrimSpace(lines[i+1])
		}
	}
	choices, ok := strings.CutPrefix(usage, "experiment: ")
	if !ok {
		t.Fatalf("no -exp usage line in -h output:\n%s", help)
	}
	choices, _, _ = strings.Cut(choices, " ")
	inUsage := map[string]bool{}
	for _, c := range strings.Split(choices, "|") {
		inUsage[c] = true
	}

	code, list, _ := runCLI("-list-experiments")
	if code != 0 {
		t.Fatalf("-list-experiments exited %d", code)
	}
	listed := strings.Split(strings.TrimSuffix(list, "\n"), "\n")
	if len(listed) != len(exps) {
		t.Fatalf("-list-experiments printed %d lines for %d experiments:\n%s", len(listed), len(exps), list)
	}

	code, _, unknown := runCLI("-exp", "no-such-experiment")
	if code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", code)
	}

	for i, e := range exps {
		if !inUsage[e.name] {
			t.Errorf("-exp usage %q lacks %s", usage, e.name)
		}
		if f := strings.Fields(listed[i]); len(f) == 0 || f[0] != e.name {
			t.Errorf("-list-experiments line %d = %q, want %s first", i, listed[i], e.name)
		}
		if !strings.Contains(unknown, " "+e.name+",") {
			t.Errorf("unknown-experiment error %q lacks %s", unknown, e.name)
		}
	}
	if !inUsage["all"] {
		t.Errorf("-exp usage %q lacks all", usage)
	}
}

// TestRemovedExecutorFlagsAreUnknown pins that the execution backend is
// not selectable: both former flags fail flag parsing with exit 2.
func TestRemovedExecutorFlagsAreUnknown(t *testing.T) {
	for _, args := range [][]string{
		{"-executor", "multiprocess"},
		{"-shards", "2"},
	} {
		code, stdout, stderr := runCLI(append(args, "-list-experiments")...)
		if code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if stdout != "" || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%v: stdout %q, stderr %q", args, stdout, stderr)
		}
	}
}
