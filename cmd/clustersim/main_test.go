package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// Flags outside the simulator's set must be rejected as undefined (main
// turns any error into exit 2 after the FlagSet prints usage). Among them
// are the retired static study's -scale, -qos, -targets, -servers and
// -server (the study runs through cmd/figures) and -sim, which no longer
// selects anything.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"undefined flag", []string{"-bogus"}},
		{"unknown scale", []string{"-scale", "huge"}},
		{"unknown qos", []string{"-qos", "p50"}},
		{"malformed target", []string{"-targets", "0.95,banana"}},
		{"target out of range", []string{"-targets", "1.5"}},
		{"negative target", []string{"-targets", "-0.9"}},
		{"servers", []string{"-servers", "20"}},
		{"server", []string{"-server"}},
		{"sim", []string{"-sim"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Errorf("run(%q) = %v, want an undefined-flag error", tc.args, err)
			}
		})
	}
}

func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-version"}, &buf); err != nil {
		t.Fatalf("run -version: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "clustersim ") || !strings.Contains(buf.String(), "go1") {
		t.Errorf("version output = %q", buf.String())
	}
}
