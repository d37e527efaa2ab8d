package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestUnknownExperimentIsAUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "slicng"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status = %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
	for _, e := range experimentList {
		if !strings.Contains(stderr.String(), e.name) {
			t.Errorf("stderr %q does not name the valid experiment %q", stderr.String(), e.name)
		}
	}
}

func TestNamedExperimentRunsAlone(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "slicing"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status = %d, stderr %q", code, stderr.String())
	}
	if got := stdout.String(); !strings.HasPrefix(got, "Figure 5") || strings.Count(got, "\n") != 2 {
		t.Errorf("stdout = %q, want the slicing report alone", got)
	}
}
