package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// wantMarkers scans a testdata package directory for `// want:<check>`
// trailing markers and returns the expected "file:line" keys.
func wantMarkers(t *testing.T, dir, check string) map[string]bool {
	t.Helper()
	marker := "// want:" + check
	want := make(map[string]bool)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), marker) {
				want[fmt.Sprintf("%s:%d", ent.Name(), line)] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if len(want) == 0 {
		t.Fatalf("no %q markers under %s — broken testdata", marker, dir)
	}
	return want
}

// analyzerNamed fetches one analyzer from the shipped set, so the tests
// exercise exactly what cclint runs.
func analyzerNamed(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// testGolden loads testdata/src/<check>, runs that one analyzer through the
// full driver (so allow-suppression is exercised too), and compares the
// diagnostics' file:line set against the want markers.
func testGolden(t *testing.T, check string) {
	dir := filepath.Join("testdata", "src", check)
	u, err := LoadDirs([]string{dir})
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags := Run(u, []*Analyzer{analyzerNamed(t, check)})
	want := wantMarkers(t, dir, check)
	got := make(map[string]bool)
	for _, d := range diags {
		if d.Check != check {
			t.Errorf("diagnostic from wrong check: %s", d)
		}
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		if got[key] {
			t.Errorf("duplicate diagnostic at %s", key)
		}
		got[key] = true
		if !want[key] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	var missing []string
	for key := range want {
		if !got[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("missing diagnostic at %s", key)
	}
}

func TestLockedCall(t *testing.T) { testGolden(t, "lockedcall") }
func TestBudgetPair(t *testing.T) { testGolden(t, "budgetpair") }
func TestWallclock(t *testing.T)  { testGolden(t, "wallclock") }
func TestCloseCheck(t *testing.T) { testGolden(t, "closecheck") }
func TestGobCanon(t *testing.T)   { testGolden(t, "gobcanon") }
func TestTestOnly(t *testing.T) {
	testGolden(t, "testonly")
	// Unsuppressed, Kept is found too: its allow, not a blind spot for
	// exported functions, keeps it out of the golden run.
	u, err := LoadDirs([]string{filepath.Join("testdata", "src", "testonly")})
	if err != nil {
		t.Fatal(err)
	}
	if raw := analyzerNamed(t, "testonly").Run(u); len(raw) != 4 {
		t.Fatalf("%d raw findings, want the 3 golden ones and Kept", len(raw))
	}
}
func TestAnalyzerCount(t *testing.T) {
	if n := len(Analyzers()); n != 6 {
		t.Fatalf("Analyzers() = %d analyzers, want 6", n)
	}
}

// TestShippedTreeLintsClean is the positive gate: the repository itself must
// carry no unsuppressed findings. A failure here means a change either
// violated an enforced invariant or needs a justified `//lint:allow`.
func TestShippedTreeLintsClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	u, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range Run(u, Analyzers()) {
		t.Errorf("%s", d)
	}
}

// TestAllowSuppressesBothPlacements pins the annotation contract: an allow
// comment covers its own line (trailing) and the next line (line-above).
func TestAllowSuppressesBothPlacements(t *testing.T) {
	dir := filepath.Join("testdata", "src", "wallclock")
	u, err := LoadDirs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	// Without suppression the Allowed() site must be found, proving the
	// clean run above is the annotation's doing, not a blind spot.
	raw := analyzerNamed(t, "wallclock").Run(u)
	suppressed := Run(u, []*Analyzer{analyzerNamed(t, "wallclock")})
	if len(raw) != len(suppressed)+1 {
		t.Fatalf("raw=%d suppressed=%d findings: want exactly one allow-suppressed site", len(raw), len(suppressed))
	}
}
