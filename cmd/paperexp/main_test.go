package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		err  string
	}{
		{"unknown flag", []string{"-bogus"}, 2, ""},
		{"positional args", []string{"fig5"}, 2, "unexpected arguments"},
		{"bad experiment", []string{"-exp", "fig99"}, 1, "fig99"},
		{"bad experiment in a list", []string{"-exp", "fig5,fig99"}, 1, "fig99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code != tc.code {
				t.Fatalf("exit = %d, want %d (stderr %q)", code, tc.code, errOut.String())
			}
			if tc.err != "" && !strings.Contains(errOut.String(), tc.err) {
				t.Fatalf("stderr = %q, want substring %q", errOut.String(), tc.err)
			}
		})
	}
}

func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"fig5", "fig6"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
}
