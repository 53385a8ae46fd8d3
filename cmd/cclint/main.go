// cclint is the project's checkpoint-safety linter: it mechanically
// enforces the invariants the checkpoint/restore pipeline relies on but the
// compiler cannot see (lock discipline on *Locked methods, StreamBudget
// pairing, virtual-time purity, writer Close-as-commit-point, canonical gob
// encoding, no function that only tests reach). It is stdlib-only —
// go/parser + go/types with a source importer — so it adds no module
// dependencies and runs anywhere `go` does.
//
// Usage:
//
//	cclint [-checks list] [-list] [packages|dirs|./...]
//
// With `./...` (or no arguments) cclint loads every package of the
// enclosing module. Explicit directory arguments load just those
// directories. Exit status: 0 clean, 1 findings, 2 load/usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mana/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("cclint", flag.ContinueOnError)
	fs.SetOutput(errw)
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	fs.Usage = func() {
		fmt.Fprintf(errw, "usage: cclint [flags] [./... | dir ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *checks != "" {
		byName := make(map[string]*lint.Analyzer, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var sel []*lint.Analyzer
		for _, name := range strings.Split(*checks, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(errw, "cclint: unknown check %q (use -list)\n", name)
				return 2
			}
			sel = append(sel, a)
		}
		analyzers = sel
	}

	u, err := loadTargets(fs.Args())
	if err != nil {
		fmt.Fprintf(errw, "cclint: %v\n", err)
		return 2
	}
	diags := lint.Run(u, analyzers)
	if len(diags) == 0 {
		return 0
	}
	lint.Print(out, diags)
	fmt.Fprintf(errw, "cclint: %d finding(s)\n", len(diags))
	return 1
}

// loadTargets resolves the argument list: no args or a lone "./..." means
// the whole enclosing module; otherwise each argument is a directory to
// load (a trailing "/..." loads it recursively).
func loadTargets(args []string) (*lint.Unit, error) {
	if len(args) == 0 || (len(args) == 1 && args[0] == "./...") {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		root, err := lint.FindModuleRoot(wd)
		if err != nil {
			return nil, err
		}
		return lint.LoadModule(root)
	}
	var dirs []string
	for _, a := range args {
		if rec, ok := strings.CutSuffix(a, "/..."); ok {
			sub, err := subdirsWithGo(rec)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, sub...)
			continue
		}
		dirs = append(dirs, a)
	}
	sort.Strings(dirs)
	return lint.LoadDirs(dirs)
}

// subdirsWithGo lists root and every subdirectory containing .go files,
// skipping hidden, underscore, and testdata trees (the go tool's
// convention).
func subdirsWithGo(root string) ([]string, error) {
	var out []string
	err := walkGoDirs(root, &out)
	return out, err
}

func walkGoDirs(dir string, out *[]string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	hasGo := false
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				continue
			}
			if err := walkGoDirs(dir+string(os.PathSeparator)+name, out); err != nil {
				return err
			}
			continue
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			hasGo = true
		}
	}
	if hasGo {
		*out = append(*out, dir)
	}
	return nil
}
