package mobilehpc

// Documentation audit: every exported top-level identifier in the
// library must carry a doc comment. This enforces the documentation
// deliverable mechanically instead of by review.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEveryExportedIdentifierDocumented(t *testing.T) {
	var undocumented []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return perr
		}
		for _, decl := range f.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Name.IsExported() && dd.Doc == nil {
					undocumented = append(undocumented,
						path+": func "+dd.Name.Name)
				}
			case *ast.GenDecl:
				groupDoc := dd.Doc != nil
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && !groupDoc && sp.Doc == nil {
							undocumented = append(undocumented,
								path+": type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						if !groupDoc && sp.Doc == nil && sp.Comment == nil {
							for _, n := range sp.Names {
								if n.IsExported() {
									undocumented = append(undocumented,
										path+": "+n.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range undocumented {
		t.Errorf("undocumented exported identifier: %s", u)
	}
}
