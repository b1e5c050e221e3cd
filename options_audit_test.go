package hcsched_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unsetOptions are the exported option fields that no non-test code sets,
// kept on purpose. Each names the verdict its EXPERIMENTS.md "Options
// audit" entry records; TestOptionsAudit checks that the entry exists.
var unsetOptions = map[string]string{
	"core.Options.FreezeRule":                 "keep: the DESIGN §5 ablation",
	"core.Options.MaxIterations":              "keep: the DESIGN §5 ablation",
	"dynamic.BatchConfig.Ties":                "keep: the tie policy the paper studies",
	"dynamic.ImmediateConfig.Ties":            "keep: the tie policy the paper studies",
	"heuristics.GAConfig.Generations":         "keep: a search budget",
	"heuristics.GAConfig.PopulationSize":      "keep: a search budget",
	"heuristics.SAConfig.Steps":               "keep: a search budget",
	"heuristics.TabuConfig.MaxSteps":          "keep: a search budget",
	"heuristics.GenitorConfig.SeedWithMinMin": "keep: the registry's Genitor against a partial config",
}

// TestOptionsAudit keeps every exported option of the internal packages
// in use: each exported field of an exported struct named *Options,
// *Config or *Limits under internal/ must be set by the module's or
// perfbench's non-test code outside the field's own package (whose
// defaulting does not count), or be listed in unsetOptions with a verdict
// in EXPERIMENTS.md. A knob no caller turns is a constant. Setters are
// found without type checking: a keyed composite literal of the field's
// type, or an assignment to the field through an identifier that the same
// file declares with that type (a variable, a parameter, or x := T{...}).
func TestOptionsAudit(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The audited fields, as package.Type.Field.
	fields := map[string]bool{}
	for _, f := range files {
		if !strings.HasPrefix(filepath.ToSlash(fset.File(f.Pos()).Name()), "internal/") {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !audited(ts.Name.Name) {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, n := range fl.Names {
						if n.IsExported() {
							fields[f.Name.Name+"."+ts.Name.Name+"."+n.Name] = true
						}
					}
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("no option fields found: the audit must run from the module root")
	}

	// The setters outside each field's own package, whose defaulting does
	// not count: keyed literals of its type, and assignments to it through
	// a variable or parameter declared with its type.
	set := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name -> package name
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = path.Base(p)
		}
		// typeName names a type expression as package.Type; "" when it is
		// not a plain named type.
		typeName := func(x ast.Expr) string {
			if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.AND {
				x = u.X
			}
			if s, ok := x.(*ast.StarExpr); ok {
				x = s.X
			}
			if c, ok := x.(*ast.CompositeLit); ok {
				x = c.Type
			}
			switch x := x.(type) {
			case *ast.Ident:
				return f.Name.Name + "." + x.Name
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok {
					return imports[pkg.Name] + "." + x.Sel.Name
				}
			}
			return ""
		}
		mark := func(typ, field string) {
			if typ != "" && !strings.HasPrefix(typ, f.Name.Name+".") {
				set[typ+"."+field] = true
			}
		}
		// The file's variables of each named type, by identifier.
		vars := map[string][]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					vars[id.Name] = append(vars[id.Name], typeName(n.Type))
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					if n.Type != nil {
						vars[id.Name] = append(vars[id.Name], typeName(n.Type))
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
					for i, l := range n.Lhs {
						if id, ok := l.(*ast.Ident); ok {
							vars[id.Name] = append(vars[id.Name], typeName(n.Rhs[i]))
						}
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							mark(typeName(n.Type), k.Name)
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok {
							for _, typ := range vars[x.Name] {
								mark(typ, sel.Sel.Name)
							}
						}
					}
				}
			}
			return true
		})
	}

	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	audit := string(experiments)
	if i := strings.Index(audit, "## Options audit"); i >= 0 {
		audit = audit[i:]
		if j := strings.Index(audit[3:], "\n## "); j >= 0 {
			audit = audit[:j+3]
		}
	} else {
		t.Error(`EXPERIMENTS.md has no "## Options audit" section`)
	}
	var names []string
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		verdict, listed := unsetOptions[name]
		switch isSet := set[name]; {
		case !isSet && !listed:
			t.Errorf("%s: no non-test code sets it; make it a constant, or list it in unsetOptions with a verdict in EXPERIMENTS.md's Options audit", name)
		case isSet && listed:
			t.Errorf("%s is set by non-test code: remove it from unsetOptions", name)
		case listed && !strings.Contains(audit, "`"+name+"`"):
			t.Errorf("%s (%s): EXPERIMENTS.md's Options audit has no entry for it", name, verdict)
		}
	}
	for name := range unsetOptions {
		if !fields[name] {
			t.Errorf("unsetOptions lists %s, which is not an audited field", name)
		}
	}
}

// audited reports whether an exported struct type is an option struct.
func audited(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Limits")
}
