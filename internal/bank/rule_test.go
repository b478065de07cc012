package bank

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestBreakpointRuleLivesHere: the Section 4.2 breakpoint rule is written
// once, in Population's Spec. A copy elsewhere drifts, so no non-test Go
// file outside this package may call WithdrawDone or compare a step label
// against "xfer-end" (with == or != or in a case). benchmark/ keeps the one
// remaining copy until ROADMAP 4(g) and is skipped, as are dot-directories
// (build output) and testdata.
func TestBreakpointRuleLivesHere(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (strings.HasPrefix(name, ".") || name == "testdata" || rel == "benchmark" || rel == "internal/bank") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			var restated bool
			switch n := n.(type) {
			case *ast.CallExpr:
				switch fn := n.Fun.(type) {
				case *ast.SelectorExpr:
					restated = fn.Sel.Name == "WithdrawDone"
				case *ast.Ident:
					restated = fn.Name == "WithdrawDone"
				}
			case *ast.BinaryExpr:
				restated = (n.Op == token.EQL || n.Op == token.NEQ) && (isXferEnd(n.X) || isXferEnd(n.Y))
			case *ast.CaseClause:
				for _, e := range n.List {
					restated = restated || isXferEnd(e)
				}
			}
			if restated {
				t.Errorf("%s: the Section 4.2 breakpoint rule is restated outside internal/bank", fset.Position(n.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked %d Go files from %s: not the module root", files, root)
	}
}

func isXferEnd(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return false
	}
	s, err := strconv.Unquote(lit.Value)
	return err == nil && s == "xfer-end"
}
