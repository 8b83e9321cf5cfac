package main

import (
	"bytes"
	"slices"
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

// TestSweepFlags runs the three sweeps through their selection flags at
// one site and one run, and checks that an unknown scenario, preset or
// client count exits 2 before anything runs (-list-experiments would
// otherwise exit 0).
func TestSweepFlags(t *testing.T) {
	tiny := []string{"-nsites", "1", "-runs", "1", "-jobs", "2"}
	for _, tc := range []struct {
		args     []string
		code     int
		want     []string // in stdout when code is 0, in stderr otherwise
		unwanted []string // in stdout
	}{
		{[]string{"-experiment", "scenarios", "-scenario", "dsl,lte"}, 0,
			[]string{"== Scenario dsl:", "== Scenario lte:"}, []string{"== Scenario fiber:"}},
		{[]string{"-experiment", "faults", "-scenario", "satellite"}, 0,
			[]string{"== Fault sweep satellite:", "\nlink-cut "}, []string{"== Fault sweep dsl:"}},
		{[]string{"-experiment", "population", "-presets", "household", "-clients", "1,4"}, 0,
			[]string{"== Population sweep: household", " 1/1\n", " 4/4\n"}, []string{"cell-sector", "/16\n", "/64\n"}},
		{[]string{"-exp", "fig6", "-sites", "w1, w2"}, 0,
			[]string{"\nw1 ", "\nw2 "}, []string{"\nw3 "}},
		{[]string{"-exp", "fig6", "-sites", "bogus"}, 2, []string{`unknown popular site "bogus"`}, nil},
		{[]string{"-scenario", "dsl,dialup", "-list-experiments"}, 2, []string{`unknown scenario "dialup"`}, nil},
		{[]string{"-presets", "stadium", "-list-experiments"}, 2, []string{`unknown population "stadium"`}, nil},
		{[]string{"-clients", "1,0", "-list-experiments"}, 2, []string{`-clients: "0" is not a positive client count`}, nil},
		{[]string{"-scale", "papr", "-list-experiments"}, 2, []string{`-scale: unknown scale "papr"`}, nil},
		{[]string{"-scale", "bogus", "-list-experiments"}, 2, []string{`-scale: unknown scale "bogus"`}, nil},
		{[]string{"-runs", "-1", "-list-experiments"}, 2, []string{"-runs: -1 is negative"}, nil},
		{[]string{"-nsites", "-3", "-list-experiments"}, 2, []string{"-nsites: -3 is negative"}, nil},
	} {
		// tc.args come last so they override tiny's values.
		code, stdout, stderr := runCLI(append(slices.Clone(tiny), tc.args...)...)
		if code != tc.code {
			t.Errorf("%v exited %d, want %d; stderr %q", tc.args, code, tc.code, stderr)
			continue
		}
		out := stdout
		if code != 0 {
			out = stderr
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%v: output lacks %q:\n%s", tc.args, w, out)
			}
		}
		for _, u := range tc.unwanted {
			if strings.Contains(stdout, u) {
				t.Errorf("%v: stdout has %q:\n%s", tc.args, u, stdout)
			}
		}
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
