// Command doclint fails when an exported identifier lacks a doc comment or
// is marked deprecated.
//
// Usage:
//
//	doclint PKGDIR...
//
// Each argument is a package directory; _test.go files are skipped. For
// every exported top-level func, method (on an exported receiver), type,
// const and var, either the declaration or its group must carry a doc
// comment, and no such comment may contain "Deprecated:". Offenders are
// listed one per line as file:line and the exit status is 1.
//
// This is the docs gate CI runs over the public package and internal/track:
// the documented surface is the product here, so an undocumented export is
// a build break, not a style nit. Superseded API is deleted, with its
// callers moved to what replaces it, rather than kept as deprecated sugar.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doclint PKGDIR...")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		missing, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		for _, m := range missing {
			fmt.Println(m)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d undocumented or deprecated exported identifiers\n", bad)
		os.Exit(1)
	}
}

// lintDir parses one package directory and returns a sorted list of
// "file:line: exported X is undocumented" (or "is deprecated") findings.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, kind, name, problem string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: exported %s %s %s", p.Filename, p.Line, kind, name, problem))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				lintDecl(decl, report)
			}
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// reporter records one finding: problem is "is undocumented" or "is
// deprecated".
type reporter func(pos token.Pos, kind, name, problem string)

// lintDecl checks one top-level declaration, reporting each exported
// identifier it declares that is undocumented or deprecated.
func lintDecl(decl ast.Decl, report reporter) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return
		}
		kind := "function"
		if d.Recv != nil {
			// Methods on unexported receivers are not reachable surface.
			if base := receiverBase(d.Recv); base != "" && !ast.IsExported(base) {
				return
			}
			kind = "method"
		}
		lintDoc(report, d.Name, kind, d.Doc)
	case *ast.GenDecl:
		kind := map[token.Token]string{token.TYPE: "type", token.CONST: "const", token.VAR: "var"}[d.Tok]
		if kind == "" {
			return // import group
		}
		// A group doc documents every member; a spec doc or trailing line
		// comment documents the one spec.
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					lintDoc(report, s.Name, kind, d.Doc, s.Doc, s.Comment)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.IsExported() {
						lintDoc(report, name, kind, d.Doc, s.Doc, s.Comment)
					}
				}
			}
		}
	}
}

// lintDoc reports name when none of docs is present, or when one of them
// marks it deprecated.
func lintDoc(report reporter, name *ast.Ident, kind string, docs ...*ast.CommentGroup) {
	documented := false
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		documented = true
		if strings.Contains(doc.Text(), "Deprecated:") {
			report(name.Pos(), kind, name.Name, "is deprecated")
			return
		}
	}
	if !documented {
		report(name.Pos(), kind, name.Name, "is undocumented")
	}
}

// receiverBase names the receiver's base type: "T" for (t T), (t *T) and
// their generic instantiations; "" when the shape is something else.
func receiverBase(recv *ast.FieldList) string {
	if len(recv.List) != 1 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}
