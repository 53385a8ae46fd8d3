package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var checks = []string{"lockedcall", "wallclock", "closecheck", "gobcanon", "testonly"}

// TestBadTestdataFails drives each check's known-bad testdata package
// through the real CLI entry point: non-zero exit and file:line diagnostics
// tagged with the check name.
func TestBadTestdataFails(t *testing.T) {
	fileLine := regexp.MustCompile(`\.go:\d+:\d+: \[`)
	for _, check := range checks {
		dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", check)
		var out, errw bytes.Buffer
		code := run([]string{"-checks", check, dir}, &out, &errw)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1\nstdout:\n%s\nstderr:\n%s", check, code, out.String(), errw.String())
			continue
		}
		if !strings.Contains(out.String(), fmt.Sprintf("[%s]", check)) {
			t.Errorf("%s: diagnostics not tagged with check name:\n%s", check, out.String())
		}
		if !fileLine.MatchString(out.String()) {
			t.Errorf("%s: diagnostics carry no file:line:col position:\n%s", check, out.String())
		}
	}
}

func TestListChecks(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("-list: exit %d\n%s", code, errw.String())
	}
	for _, check := range checks {
		if !strings.Contains(out.String(), check) {
			t.Errorf("-list omits %s:\n%s", check, out.String())
		}
	}
}

func TestUnknownCheckIsUsageError(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-checks", "nosuch"}, &out, &errw); code != 2 {
		t.Fatalf("unknown check: exit %d, want 2", code)
	}
}
