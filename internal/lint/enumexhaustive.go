package lint

// enumexhaustive: the Config enums (System, GVT, Affinity, Queue,
// StateSaving and their internal counterparts) and the model tag are
// closed sets that several independent tables must agree on — the
// switch that builds the component, the Parse* name table, the JSON
// codec, and the checkpoint state codec. Adding a variant is a
// multi-file change, and the compiler enforces none of it: a missed
// switch arm silently falls through to whatever the default does.
//
// The pass enforces, for every switch whose tag is an enum type:
// cover every declared constant, or carry a default that fails loudly
// (panic, os.Exit, or returning/assigning a constructed error). On the
// public package it additionally cross-checks the name tables: each
// Parse<Enum> function must return every declared constant, the model
// encode/decode tag tables must cover exactly the Model
// implementations, and the checkpoint codec package must carry
// EncodeState/DecodeState for each model.

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

var enumExhaustivePass = &Pass{
	Name: "enumexhaustive",
	Doc:  "switches over Config enums must cover all variants or fail loudly; enum and model name tables must stay mutually exhaustive",
	Run: func(c *Checker) {
		enums := c.resolveNamed(c.Cfg.EnumTypes)
		if len(enums) > 0 {
			variants := map[*types.TypeName][]*types.Const{}
			for tn := range enums {
				variants[tn] = enumConstants(c.Prog, tn)
			}
			for _, pkg := range c.Prog.Packages {
				c.enumSwitches(pkg, enums, variants)
			}
		}
		if c.Cfg.EnumPkg != "" {
			c.enumNameTables(enums)
		}
		if c.Cfg.ModelIface != "" {
			c.modelTables()
		}
	},
}

// enumConstants returns the constants declared with the enum's type in
// its defining package, deduplicated by value, in declaration order.
func enumConstants(prog *Program, tn *types.TypeName) []*types.Const {
	pkg := tn.Pkg()
	scope := pkg.Scope()
	var out []*types.Const
	seen := map[string]bool{}
	for _, name := range scope.Names() {
		cn, ok := scope.Lookup(name).(*types.Const)
		if !ok || cn.Type() != tn.Type() {
			continue
		}
		key := cn.Val().ExactString()
		if !seen[key] {
			seen[key] = true
			out = append(out, cn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

func (c *Checker) enumSwitches(pkg *Package, enums map[*types.TypeName]bool, variants map[*types.TypeName][]*types.Const) {
	inspect(pkg, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		t := pkg.Info.TypeOf(sw.Tag)
		named, ok := t.(*types.Named)
		if !ok || !enums[named.Obj()] {
			return true
		}
		decl := variants[named.Obj()]
		covered := map[string]bool{}
		var defaultClause *ast.CaseClause
		for _, cl := range sw.Body.List {
			cc := cl.(*ast.CaseClause)
			if cc.List == nil {
				defaultClause = cc
				continue
			}
			for _, e := range cc.List {
				if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
					covered[tv.Value.ExactString()] = true
				}
			}
		}
		var missing []string
		for _, v := range decl {
			if !covered[v.Val().ExactString()] {
				missing = append(missing, v.Name())
			}
		}
		if len(missing) == 0 {
			return true
		}
		if defaultClause != nil && failsLoudly(pkg, defaultClause) {
			return true
		}
		what := "no default"
		if defaultClause != nil {
			what = "a default that does not fail loudly"
		}
		c.Report(sw.Pos(), "switch over %s misses %s with %s: cover every variant or make the default panic/return an error",
			named.Obj().Name(), strings.Join(missing, ", "), what)
		return true
	})
}

// failsLoudly reports whether a default clause surfaces the unknown
// variant instead of swallowing it: a panic, an os.Exit/log.Fatal, or
// a return/assignment that constructs an error.
func failsLoudly(pkg *Package, cc *ast.CaseClause) bool {
	loud := false
	for _, st := range cc.Body {
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "panic" {
					loud = true
				}
			case *ast.SelectorExpr:
				obj := pkg.Info.Uses[fun.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() + "." + obj.Name() {
				case "fmt.Errorf", "errors.New", "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "testing.T.Fatalf":
					loud = true
				}
			}
			return true
		})
	}
	return loud
}

// enumNameTables checks that every Parse<Enum> function in the public
// package returns every declared constant of its enum: the name table
// and the declaration can only drift apart loudly.
func (c *Checker) enumNameTables(enums map[*types.TypeName]bool) {
	pkg := c.pkgByRel(c.Cfg.EnumPkg)
	if pkg == nil {
		return
	}
	for tn := range enums {
		if tn.Pkg() != pkg.Types {
			continue
		}
		fnName := "Parse" + tn.Name()
		obj := pkg.Types.Scope().Lookup(fnName)
		if obj == nil {
			c.Report(tn.Pos(), "enum %s has no %s name table: every public enum needs a parser the JSON codec and the CLIs share", tn.Name(), fnName)
			continue
		}
		decl := findFuncDecl(pkg, fnName)
		if decl == nil {
			continue
		}
		returned := map[string]bool{}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, e := range ret.Results {
				if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil && types.Identical(tv.Type, tn.Type()) {
					returned[tv.Value.ExactString()] = true
				}
			}
			return true
		})
		var missing []string
		for _, v := range enumConstants(c.Prog, tn) {
			if !returned[v.Val().ExactString()] {
				missing = append(missing, v.Name())
			}
		}
		if len(missing) > 0 {
			c.Report(decl.Pos(), "%s never returns %s: the name table is not exhaustive over the %s declaration",
				fnName, strings.Join(missing, ", "), tn.Name())
		}
	}
}

// modelTables cross-checks the model tag tables: every exported
// implementation of the model interface must appear in the encode type
// switch and the decode name table, and the checkpoint codec package
// must carry per-model EncodeState/DecodeState methods.
func (c *Checker) modelTables() {
	pkg := c.pkgByRel(c.Cfg.EnumPkg)
	if pkg == nil {
		return
	}
	i := strings.LastIndex(c.Cfg.ModelIface, ".")
	if i < 0 {
		return
	}
	ifacePkg, ifaceName := c.Cfg.ModelIface[:i], c.Cfg.ModelIface[i+1:]
	ipk, ok := c.Prog.byPath[ifacePkg]
	if !ok {
		return
	}
	iobj, ok := ipk.Types.Scope().Lookup(ifaceName).(*types.TypeName)
	if !ok {
		return
	}
	iface, ok := iobj.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}

	// The ground truth: exported named types in the public package
	// implementing the interface (by value or pointer).
	models := map[string]*types.TypeName{}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() || tn == iobj {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		if types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface) {
			models[tn.Name()] = tn
		}
	}
	if len(models) == 0 {
		return
	}

	if decl := findFuncDecl(pkg, c.Cfg.ModelEncode); decl != nil {
		c.checkEncodeTable(pkg, decl, models)
	} else {
		c.Report(pkg.Files[0].Pos(), "model encode table %s not found", c.Cfg.ModelEncode)
	}
	if decl := findFuncDecl(pkg, c.Cfg.ModelDecode); decl != nil {
		c.checkDecodeTable(pkg, decl, models)
	} else {
		c.Report(pkg.Files[0].Pos(), "model decode table %s not found", c.Cfg.ModelDecode)
	}
	if c.Cfg.ModelCodecPkg != "" {
		c.checkStateCodecs(models)
	}
}

// checkEncodeTable verifies the encode function's type switch names
// every model implementation.
func (c *Checker) checkEncodeTable(pkg *Package, decl *ast.FuncDecl, models map[string]*types.TypeName) {
	cased := map[string]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		for _, cl := range ts.Body.List {
			cc := cl.(*ast.CaseClause)
			for _, e := range cc.List {
				t := pkg.Info.TypeOf(e)
				if t == nil {
					continue
				}
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					cased[named.Obj().Name()] = true
				}
			}
		}
		return true
	})
	for _, name := range sortedKeys(models) {
		if !cased[name] {
			c.Report(decl.Pos(), "%s has no case for model %s: it implements the model interface but cannot travel on the wire",
				c.Cfg.ModelEncode, name)
		}
	}
}

// checkDecodeTable verifies the decode function constructs every model
// implementation from its string tag.
func (c *Checker) checkDecodeTable(pkg *Package, decl *ast.FuncDecl, models map[string]*types.TypeName) {
	built := map[string]bool{}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		t := pkg.Info.TypeOf(cl)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			built[named.Obj().Name()] = true
		}
		return true
	})
	for _, name := range sortedKeys(models) {
		if !built[name] {
			c.Report(decl.Pos(), "%s never constructs model %s: a wire config naming it cannot decode",
				c.Cfg.ModelDecode, name)
		}
	}
}

// checkStateCodecs verifies the checkpoint codec package declares
// EncodeState and DecodeState for a same-named type per model.
func (c *Checker) checkStateCodecs(models map[string]*types.TypeName) {
	mp := c.pkgByRel(c.Cfg.ModelCodecPkg)
	if mp == nil {
		return
	}
	for _, name := range sortedKeys(models) {
		tn, ok := mp.Types.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			c.Report(models[name].Pos(), "model %s has no counterpart type in %s: checkpoint state codecs are missing", name, c.Cfg.ModelCodecPkg)
			continue
		}
		for _, method := range []string{"EncodeState", "DecodeState"} {
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, mp.Types, method)
			if obj == nil {
				c.Report(tn.Pos(), "model %s lacks %s in %s: its LP state cannot checkpoint", name, method, c.Cfg.ModelCodecPkg)
			}
		}
	}
}

func (c *Checker) pkgByRel(rel string) *Package {
	for _, pkg := range c.Prog.Packages {
		if pkg.Rel == rel {
			return pkg
		}
	}
	return nil
}

func findFuncDecl(pkg *Package, name string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name && fd.Body != nil {
				return fd
			}
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
