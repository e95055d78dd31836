package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLintDir(t *testing.T) {
	dir := t.TempDir()
	src := `package demo

// Documented is fine.
func Documented() {}

func Naked() {}

type Bare struct{}

// Grouped docs cover every member.
const (
	A = 1
	B = 2
)

var Loose = 3

type hidden struct{}

func (hidden) Exported() {} // unexported receiver: not surface

// Method is documented.
func (Bare) Method() {}

func (Bare) Undoc() {}

// Old is documented but superseded.
//
// Deprecated: use Documented.
func Old() {}

// Legacy names; a deprecated group doc covers every member.
//
// Deprecated: use A and B.
const (
	OldA = 1
	OldB = 2
)
`
	if err := os.WriteFile(filepath.Join(dir, "demo.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Test files are skipped even when they would offend.
	if err := os.WriteFile(filepath.Join(dir, "demo_test.go"),
		[]byte("package demo\n\nfunc TestHelperExported() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing, err := lintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range missing {
		names = append(names, m[strings.LastIndex(m, "exported "):])
	}
	want := []string{
		"exported function Naked is undocumented",
		"exported type Bare is undocumented",
		"exported var Loose is undocumented",
		"exported method Undoc is undocumented",
		"exported function Old is deprecated",
		"exported const OldA is deprecated",
		"exported const OldB is deprecated",
	}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Errorf("missing finding %q in %v", w, missing)
		}
	}
	if len(missing) != len(want) {
		t.Errorf("got %d findings, want %d: %v", len(missing), len(want), missing)
	}
}
