package lint

// lockorder: the serving and clustering layers coordinate through a
// handful of struct-field mutexes (Manager.mu, resultCache.mu, the
// telemetry instrument locks). Two disciplines keep them deadlock-free
// and responsive, and this pass mechanically enforces both:
//
//  1. Acquisition order forms a DAG. The pass builds a per-module
//     graph with an edge A→B for every site that acquires B while
//     holding A — directly, or transitively through a same-module
//     call — and reports every edge that participates in a cycle,
//     plus any re-acquisition of a lock already held (an immediate
//     self-deadlock with sync.Mutex).
//  2. No lock is held across a blocking operation: a channel send or
//     receive, a select with no default, a range over a channel,
//     sync.WaitGroup.Wait, exec.Cmd.Wait, time.Sleep, or a curated
//     set of net / net/http calls (dials, listens, Client.Do,
//     Server.Serve, conn reads/writes). A holder parked on one of
//     these stalls every other acquirer — the PR 9 fleet deadlock was
//     exactly a worker slot held across a blocking remote call.
//
// The analysis is flow-aware within a function (branches fork the
// held-set and merge by intersection, branches ending in a terminating
// statement are excluded from the merge) and summary-based across
// functions (each function's transitive "acquires" set and "blocks"
// evidence propagate to callers through same-module static calls).
// Goroutine bodies launched with `go` are analyzed as fresh regions —
// the launcher's locks are not held there. Unknown callees (interface
// methods, function values, other modules beyond the curated stdlib
// set) are assumed non-blocking and lock-free: the pass prefers a
// false negative to a false positive, because every report must be
// actionable without an escape hatch.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

var lockOrderPass = &Pass{
	Name: "lockorder",
	Doc:  "mutex acquisition order must form a DAG; no lock held across a blocking operation",
	Run: func(c *Checker) {
		lo := &lockOrder{
			c:         c,
			summaries: map[*types.Func]*fnSummary{},
			edges:     map[types.Object]map[types.Object]token.Pos{},
			disp:      map[types.Object]string{},
		}
		lo.collectSummaries()
		lo.propagate()
		for _, pkg := range c.Prog.Packages {
			if !matchRel(pkg.Rel, c.Cfg.LockOrderPkgs) {
				continue
			}
			lo.analyzePkg(pkg)
		}
		lo.reportCycles()
	},
}

// fnSummary is one function's lock-relevant behavior as seen by its
// callers: which mutexes its body (transitively) acquires, and whether
// it (transitively) blocks.
type fnSummary struct {
	acquires  map[types.Object]token.Pos
	blockDesc string // "" = does not block
	callees   map[*types.Func]bool
}

type lockOrder struct {
	c         *Checker
	summaries map[*types.Func]*fnSummary
	edges     map[types.Object]map[types.Object]token.Pos
	disp      map[types.Object]string // lock object -> display name
}

// ---- phase A: per-function summaries, module-wide ----

func (lo *lockOrder) collectSummaries() {
	for _, pkg := range lo.c.Prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				s := &fnSummary{acquires: map[types.Object]token.Pos{}, callees: map[*types.Func]bool{}}
				lo.summarize(pkg, fd.Body, s)
				lo.summaries[fn] = s
			}
		}
	}
}

// summarize records direct acquisitions, direct blocking evidence, and
// same-module callees. Goroutine bodies and non-invoked function
// literals are skipped: they do not run on the caller's stack.
func (lo *lockOrder) summarize(pkg *Package, n ast.Node, s *fnSummary) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			// Visited only when not consumed by the CallExpr case below
			// (immediately-invoked literals are walked there).
			return false
		case *ast.SendStmt:
			s.noteBlock("channel send")
			return true
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					s.noteBlock("range over a channel")
				}
			}
			return true
		case *ast.UnaryExpr:
			// Receives inside select comm clauses never reach here: the
			// SelectStmt case below walks only the clause bodies.
			if n.Op == token.ARROW {
				s.noteBlock("channel receive")
			}
			return true
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				s.noteBlock("select with no default")
			}
			// Comm clauses' receives are the select itself; walk only
			// the clause bodies.
			for _, cl := range n.Body.List {
				for _, st := range cl.(*ast.CommClause).Body {
					lo.summarize(pkg, st, s)
				}
			}
			return false
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				lo.summarize(pkg, lit.Body, s)
			}
			if obj, disp, kind := lo.lockCall(pkg, n); kind == lockAcquire {
				if _, ok := s.acquires[obj]; !ok || n.Pos() < s.acquires[obj] {
					s.acquires[obj] = n.Pos()
				}
				lo.setDisp(obj, disp)
				return true
			} else if kind == lockRelease {
				return true
			}
			if desc, ok := stdlibBlocking(pkg, n); ok {
				s.noteBlock(desc)
				return true
			}
			if fn := calleeFunc(pkg, n); fn != nil {
				s.callees[fn] = true
			}
			return true
		}
		return true
	})
}

func (s *fnSummary) noteBlock(desc string) {
	if s.blockDesc == "" {
		s.blockDesc = desc
	}
}

// propagate closes summaries under the call graph: a function acquires
// what its callees acquire and blocks if any callee blocks.
func (lo *lockOrder) propagate() {
	for changed := true; changed; {
		changed = false
		for _, s := range lo.summaries {
			for callee := range s.callees {
				cs, ok := lo.summaries[callee]
				if !ok {
					continue
				}
				for obj, pos := range cs.acquires {
					if _, ok := s.acquires[obj]; !ok {
						s.acquires[obj] = pos
						changed = true
					}
				}
				if s.blockDesc == "" && cs.blockDesc != "" {
					s.blockDesc = "call to " + funcDisplay(callee) + ", which blocks (" + cs.blockDesc + ")"
					changed = true
				}
			}
		}
	}
}

// ---- phase B: flow-aware region analysis inside LockOrderPkgs ----

func (lo *lockOrder) analyzePkg(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			r := &lockRegion{lo: lo, pkg: pkg}
			r.block(fd.Body.List, map[types.Object]token.Pos{})
		}
	}
}

type lockRegion struct {
	lo  *lockOrder
	pkg *Package
}

type heldSet = map[types.Object]token.Pos

func copyHeld(h heldSet) heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// block threads the held-set through a statement list and returns the
// set at its end.
func (r *lockRegion) block(list []ast.Stmt, held heldSet) heldSet {
	for _, st := range list {
		held = r.stmt(st, held)
	}
	return held
}

func (r *lockRegion) stmt(st ast.Stmt, held heldSet) heldSet {
	switch st := st.(type) {
	case *ast.ExprStmt:
		r.expr(st.X, held)
	case *ast.SendStmt:
		r.expr(st.Chan, held)
		r.expr(st.Value, held)
		r.blocked(st.Arrow, "channel send", held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			r.expr(e, held)
		}
		for _, e := range st.Lhs {
			r.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						r.expr(e, held)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		r.expr(st.X, held)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			r.expr(e, held)
		}
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held to the end of the
		// region — no change. A deferred literal runs at return time as
		// its own region; anything else deferred is left alone.
		if _, _, kind := r.lo.lockCall(r.pkg, st.Call); kind != lockRelease {
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				r.block(lit.Body.List, heldSet{})
			}
		}
	case *ast.GoStmt:
		for _, e := range st.Call.Args {
			r.expr(e, held)
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			r.block(lit.Body.List, heldSet{})
		}
	case *ast.LabeledStmt:
		held = r.stmt(st.Stmt, held)
	case *ast.BlockStmt:
		held = r.block(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = r.stmt(st.Init, held)
		}
		r.expr(st.Cond, held)
		branches := [][]ast.Stmt{st.Body.List}
		if st.Else != nil {
			branches = append(branches, []ast.Stmt{st.Else})
		} else {
			branches = append(branches, nil)
		}
		held = r.merge(branches, held)
	case *ast.ForStmt:
		if st.Init != nil {
			held = r.stmt(st.Init, held)
		}
		if st.Cond != nil {
			r.expr(st.Cond, held)
		}
		r.block(st.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		r.expr(st.X, held)
		if t := r.pkg.Info.TypeOf(st.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				r.blocked(st.For, "range over a channel", held)
			}
		}
		r.block(st.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = r.stmt(st.Init, held)
		}
		if st.Tag != nil {
			r.expr(st.Tag, held)
		}
		held = r.mergeCases(st.Body.List, held)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held = r.stmt(st.Init, held)
		}
		held = r.mergeCases(st.Body.List, held)
	case *ast.SelectStmt:
		if !selectHasDefault(st) {
			r.blocked(st.Select, "select with no default", held)
		}
		for _, cl := range st.Body.List {
			r.block(cl.(*ast.CommClause).Body, copyHeld(held))
		}
	}
	return held
}

// merge runs each branch on a fork of held and intersects the results,
// skipping branches that end in a terminating statement (their lock
// state never flows past the construct). nil represents an absent else
// branch: fall-through with held unchanged.
func (r *lockRegion) merge(branches [][]ast.Stmt, held heldSet) heldSet {
	var outs []heldSet
	for _, b := range branches {
		if b == nil {
			outs = append(outs, copyHeld(held))
			continue
		}
		out := held
		if len(b) == 1 {
			out = r.stmt(b[0], copyHeld(held))
		} else {
			out = r.block(b, copyHeld(held))
		}
		if !terminates(b) {
			outs = append(outs, out)
		}
	}
	if len(outs) == 0 {
		return copyHeld(held)
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		for k := range merged {
			if _, ok := o[k]; !ok {
				delete(merged, k)
			}
		}
	}
	return merged
}

func (r *lockRegion) mergeCases(clauses []ast.Stmt, held heldSet) heldSet {
	branches := [][]ast.Stmt{nil} // no case taken / default absent
	for _, cl := range clauses {
		if cc, ok := cl.(*ast.CaseClause); ok {
			branches = append(branches, cc.Body)
		}
	}
	return r.merge(branches, held)
}

// terminates reports whether a statement list certainly does not fall
// through (return, branch, or panic at the end).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last.List)
	case *ast.IfStmt:
		if last.Else != nil {
			return terminates(last.Body.List) && terminates([]ast.Stmt{last.Else})
		}
	}
	return false
}

// expr walks an expression under the current held-set: acquisitions
// and releases mutate it, blocking operations report against it.
func (r *lockRegion) expr(e ast.Expr, held heldSet) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		for _, a := range e.Args {
			r.expr(a, held)
		}
		if lit, ok := e.Fun.(*ast.FuncLit); ok {
			// Immediately invoked: runs synchronously on this stack
			// with the caller's locks held.
			r.block(lit.Body.List, held)
			return
		}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			r.expr(sel.X, held)
		}
		obj, disp, kind := r.lo.lockCall(r.pkg, e)
		switch kind {
		case lockAcquire:
			r.acquire(e.Pos(), obj, disp, held)
			return
		case lockRelease:
			delete(held, obj)
			return
		}
		if desc, ok := stdlibBlocking(r.pkg, e); ok {
			r.blocked(e.Pos(), desc, held)
			return
		}
		if fn := calleeFunc(r.pkg, e); fn != nil {
			if s, ok := r.lo.summaries[fn]; ok {
				r.applySummary(e.Pos(), fn, s, held)
			}
		}
	case *ast.UnaryExpr:
		r.expr(e.X, held)
		if e.Op == token.ARROW {
			r.blocked(e.OpPos, "channel receive", held)
		}
	case *ast.BinaryExpr:
		r.expr(e.X, held)
		r.expr(e.Y, held)
	case *ast.ParenExpr:
		r.expr(e.X, held)
	case *ast.StarExpr:
		r.expr(e.X, held)
	case *ast.SelectorExpr:
		r.expr(e.X, held)
	case *ast.IndexExpr:
		r.expr(e.X, held)
		r.expr(e.Index, held)
	case *ast.SliceExpr:
		r.expr(e.X, held)
		r.expr(e.Low, held)
		r.expr(e.High, held)
		r.expr(e.Max, held)
	case *ast.TypeAssertExpr:
		r.expr(e.X, held)
	case *ast.KeyValueExpr:
		r.expr(e.Value, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			r.expr(el, held)
		}
	case *ast.FuncLit:
		// Stored for later: analyzed as a fresh region, the current
		// locks are not known to be held when it eventually runs.
		r.block(e.Body.List, heldSet{})
	}
}

func (r *lockRegion) acquire(pos token.Pos, obj types.Object, disp string, held heldSet) {
	r.lo.setDisp(obj, disp)
	if _, ok := held[obj]; ok {
		r.lo.c.Report(pos, "mutex %s acquired while already held: recursive acquisition deadlocks", disp)
		return
	}
	for h := range held {
		r.lo.edge(h, obj, pos)
	}
	held[obj] = pos
}

// applySummary charges a same-module call's transitive acquisitions
// and blocking behavior to the caller's held-set.
func (r *lockRegion) applySummary(pos token.Pos, fn *types.Func, s *fnSummary, held heldSet) {
	if len(held) == 0 {
		return
	}
	for obj := range s.acquires {
		if _, ok := held[obj]; ok {
			r.lo.c.Report(pos, "call to %s acquires mutex %s, which is already held: recursive acquisition deadlocks",
				funcDisplay(fn), r.lo.disp[obj])
			continue
		}
		for h := range held {
			r.lo.edge(h, obj, pos)
		}
	}
	if s.blockDesc != "" {
		r.blocked(pos, "call to "+funcDisplay(fn)+", which blocks ("+s.blockDesc+")", held)
	}
}

func (r *lockRegion) blocked(pos token.Pos, desc string, held heldSet) {
	if len(held) == 0 {
		return
	}
	r.lo.c.Report(pos, "%s held across %s: a blocked holder stalls every other acquirer; release before blocking", r.lo.heldNames(held), desc)
}

func (lo *lockOrder) heldNames(held heldSet) string {
	var names []string
	for obj := range held {
		names = append(names, lo.disp[obj])
	}
	sort.Strings(names)
	if len(names) == 1 {
		return "mutex " + names[0]
	}
	return "mutexes " + strings.Join(names, ", ")
}

func (lo *lockOrder) setDisp(obj types.Object, disp string) {
	if _, ok := lo.disp[obj]; !ok {
		lo.disp[obj] = disp
	}
}

func (lo *lockOrder) edge(from, to types.Object, pos token.Pos) {
	m := lo.edges[from]
	if m == nil {
		m = map[types.Object]token.Pos{}
		lo.edges[from] = m
	}
	if p, ok := m[to]; !ok || pos < p {
		m[to] = pos
	}
}

// reportCycles flags every acquisition edge that participates in a
// cycle of the order graph.
func (lo *lockOrder) reportCycles() {
	for from, tos := range lo.edges {
		for to, pos := range tos {
			if lo.reaches(to, from, map[types.Object]bool{}) {
				lo.c.Report(pos, "lock order cycle: %s acquired while holding %s, but elsewhere %s is (transitively) acquired while holding %s; acquisitions must follow one global order",
					lo.disp[to], lo.disp[from], lo.disp[from], lo.disp[to])
			}
		}
	}
}

func (lo *lockOrder) reaches(from, to types.Object, seen map[types.Object]bool) bool {
	if from == to {
		return true
	}
	if seen[from] {
		return false
	}
	seen[from] = true
	for next := range lo.edges[from] {
		if lo.reaches(next, to, seen) {
			return true
		}
	}
	return false
}

// ---- lock and blocking-call classification ----

type lockCallKind int

const (
	lockNone lockCallKind = iota
	lockAcquire
	lockRelease
)

// lockCall classifies a call as a mutex acquire/release and resolves a
// stable identity for the lock: the struct field object for m.mu-style
// receivers, the variable object for plain mutex vars, or the named
// type for an embedded mutex.
func (lo *lockOrder) lockCall(pkg *Package, call *ast.CallExpr) (types.Object, string, lockCallKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", lockNone
	}
	var method *types.Func
	if s, ok := pkg.Info.Selections[sel]; ok {
		method, _ = s.Obj().(*types.Func)
	} else if f, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok {
		method = f
	}
	if method == nil || method.Pkg() == nil || method.Pkg().Path() != "sync" {
		return nil, "", lockNone
	}
	var kind lockCallKind
	switch method.Name() {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return nil, "", lockNone
	}
	recv := method.Type().(*types.Signature).Recv()
	if recv == nil || !isMutexType(recv.Type()) {
		return nil, "", lockNone
	}
	obj, disp := lockIdentity(pkg, sel.X)
	if obj == nil {
		return nil, "", lockNone
	}
	return obj, disp, kind
}

// lockIdentity resolves the expression a Lock/Unlock is called on to
// the object all instances share: the field var, the named variable,
// or — for an embedded mutex — the embedding type's name object.
func lockIdentity(pkg *Package, recv ast.Expr) (types.Object, string) {
	recv = unparenDeref(recv)
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		var obj types.Object
		if s, ok := pkg.Info.Selections[e]; ok {
			obj = s.Obj()
		} else {
			obj = pkg.Info.Uses[e.Sel]
		}
		if v, ok := obj.(*types.Var); ok && isMutexType(v.Type()) {
			owner := namedTypeName(pkg.Info.TypeOf(e.X))
			if owner == "" && v.Pkg() != nil {
				owner = v.Pkg().Name()
			}
			return v, owner + "." + v.Name()
		}
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			if isMutexType(v.Type()) {
				return v, v.Name()
			}
			// Embedded mutex: t.Lock() with t a struct embedding
			// sync.Mutex — unify on the named type.
			if tn := namedTypeObj(v.Type()); tn != nil {
				return tn, tn.Name() + " (embedded mutex)"
			}
		}
	}
	// Embedded mutex behind a selector (s.job.Lock()): unify on the
	// field's named type.
	if t := pkg.Info.TypeOf(recv); t != nil && !isMutexType(t) {
		if tn := namedTypeObj(t); tn != nil {
			return tn, tn.Name() + " (embedded mutex)"
		}
	}
	return nil, ""
}

func unparenDeref(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				e = x.X
				continue
			}
			return e
		default:
			return e
		}
	}
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func namedTypeObj(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if tn := namedTypeObj(t); tn != nil {
		return tn.Name()
	}
	return ""
}

// calleeFunc resolves a call's static target to a same-module function
// with a body (methods included); interface dispatch and function
// values return nil.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[fun]; ok {
			obj = s.Obj()
		} else {
			obj = pkg.Info.Uses[fun.Sel]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn
}

func funcDisplay(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name := namedTypeName(sig.Recv().Type()); name != "" {
			return name + "." + fn.Name()
		}
	}
	return fn.Name()
}

// stdlibBlocking reports whether a call is one of the curated standard
// library operations that park the goroutine: synchronization waits,
// sleeps, and network I/O. The list is deliberately narrow — a missed
// blocking call is a false negative, a misclassified non-blocking one
// is a false positive users must annotate away.
func stdlibBlocking(pkg *Package, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	name := fn.Name()
	var recvName string
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recvName = namedTypeName(sig.Recv().Type())
	}
	switch fn.Pkg().Path() {
	case "sync":
		if name == "Wait" {
			return "sync." + recvName + ".Wait", true
		}
	case "os/exec":
		switch name {
		case "Wait", "Run", "Output", "CombinedOutput":
			return "exec.Cmd." + name, true
		}
	case "time":
		if name == "Sleep" && recvName == "" {
			return "time.Sleep", true
		}
	case "net":
		switch name {
		case "Dial", "DialTimeout", "Listen", "ListenPacket",
			"Accept", "Read", "Write", "ReadFrom", "WriteTo":
			return "net." + name, true
		}
	case "net/http":
		switch recvName {
		case "Client":
			switch name {
			case "Do", "Get", "Post", "PostForm", "Head":
				return "http.Client." + name, true
			}
		case "Server":
			switch name {
			case "Serve", "ListenAndServe", "ListenAndServeTLS", "Shutdown":
				return "http.Server." + name, true
			}
		case "":
			switch name {
			case "Get", "Post", "PostForm", "Head", "Serve", "ListenAndServe", "ListenAndServeTLS":
				return "http." + name, true
			}
		}
	}
	return "", false
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
