package lint

// streamterm: a stream that just stops is indistinguishable from a
// stream that finished — PR 9 shipped an SSE endpoint whose eviction
// path ended the response with no terminal frame, and clients reported
// success on half a sweep. Every SSE handler (a function that sets
// Content-Type: text/event-stream) must emit exactly one terminal
// frame — a call to the configured stream-write helper (default
// writeSSE) whose event argument is one of the terminal event names
// (default "done"/"error") — on every return path. A return escapes
// the requirement only when the client is provably gone: it sits under
// an if that tests the stream-write helper's error (the write already
// failed), or in a select case receiving from a Done()/stop channel
// (the client disconnected). Returns before the handler switches the
// response into event-stream mode are exempt — they still speak plain
// HTTP. Emitting a second terminal frame on the same straight-line
// path is also reported.

import (
	"go/ast"
	"go/token"
	"strings"
)

var streamTermPass = &Pass{
	Name: "streamterm",
	Doc:  "SSE handlers emit exactly one terminal frame on every return path",
	Run: func(c *Checker) {
		for _, pkg := range c.Prog.Packages {
			if matchRel(pkg.Rel, c.Cfg.StreamPkgs) {
				c.checkStreamHandlers(pkg)
			}
		}
	},
}

func (c *Checker) streamWriteFunc() string {
	if c.Cfg.StreamWriteFunc != "" {
		return c.Cfg.StreamWriteFunc
	}
	return "writeSSE"
}

func (c *Checker) terminalEvents() []string {
	if len(c.Cfg.StreamTerminalEvents) > 0 {
		return c.Cfg.StreamTerminalEvents
	}
	return []string{"done", "error"}
}

func (c *Checker) checkStreamHandlers(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			start := streamStart(fd.Body)
			if !start.IsValid() {
				continue
			}
			c.checkHandler(pkg, fd, start)
		}
	}
}

// streamStart returns the position of the call that switches the
// response into event-stream mode, or NoPos for non-stream functions.
func streamStart(body *ast.BlockStmt) token.Pos {
	pos := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Set" {
			return true
		}
		if litString(call.Args[0]) == "Content-Type" && litString(call.Args[1]) == "text/event-stream" {
			pos = call.Pos()
		}
		return true
	})
	return pos
}

func litString(e ast.Expr) string {
	bl, ok := e.(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return ""
	}
	return strings.Trim(bl.Value, "`\"")
}

func (c *Checker) checkHandler(pkg *Package, fd *ast.FuncDecl, start token.Pos) {
	writeFn := c.streamWriteFunc()
	terminal := c.terminalEvents()

	var path []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			path = path[:len(path)-1]
			return true
		}
		path = append(path, n)
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if ret.Pos() < start {
			// Still in plain-HTTP mode: the stream has not started.
			return true
		}
		if returnEscapes(pkg, path, writeFn) {
			return true
		}
		if terminalEmitBefore(path, ret, writeFn, terminal) {
			return true
		}
		c.Report(ret.Pos(), "stream handler %s returns without a terminal frame (%s via %s): the client cannot tell this end from success", fd.Name.Name, strings.Join(terminal, "/"), writeFn)
		return true
	})

	c.checkDoubleTerminal(fd, writeFn, terminal)
}

// returnEscapes reports whether the return sits on a path where the
// client is provably gone: under an if testing the stream writer's
// error, or in a select case receiving cancellation.
func returnEscapes(pkg *Package, path []ast.Node, writeFn string) bool {
	for i := len(path) - 1; i >= 0; i-- {
		switch n := path[i].(type) {
		case *ast.IfStmt:
			if callsNamed(n.Init, writeFn) || callsNamed(n.Cond, writeFn) {
				return true
			}
		case *ast.CommClause:
			if n.Comm != nil && commIsCancellation(pkg, n.Comm) {
				return true
			}
		case *ast.FuncLit:
			return false
		}
	}
	return false
}

func callsNamed(n ast.Node, name string) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == name {
				found = true
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

func commIsCancellation(pkg *Package, comm ast.Stmt) bool {
	var x ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			x = u.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				x = u.X
			}
		}
	}
	if x == nil {
		return false
	}
	return cancellableChan(pkg, x)
}

// terminalEmitBefore reports whether a terminal-frame write dominates
// the return: an earlier statement in an enclosing block (subtrees
// that themselves end in a return are skipped — their frames belong to
// their own paths).
func terminalEmitBefore(path []ast.Node, ret *ast.ReturnStmt, writeFn string, terminal []string) bool {
	for i := len(path) - 1; i >= 1; i-- {
		block, ok := path[i].(*ast.BlockStmt)
		if !ok {
			if _, isLit := path[i].(*ast.FuncLit); isLit {
				return false
			}
			continue
		}
		inner := path[i+1]
		for _, st := range block.List {
			if st == inner {
				break
			}
			if subtreeEndsInReturn(st) {
				continue
			}
			if emitsTerminal(st, writeFn, terminal) {
				return true
			}
		}
	}
	return false
}

func subtreeEndsInReturn(st ast.Stmt) bool {
	switch s := st.(type) {
	case *ast.IfStmt:
		return terminates(s.Body.List)
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}

func emitsTerminal(n ast.Node, writeFn string, terminal []string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if isTerminalEmit(n, writeFn, terminal) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isTerminalEmit(n ast.Node, writeFn string, terminal []string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if name != writeFn {
		return false
	}
	for _, a := range call.Args {
		s := litString(a)
		for _, t := range terminal {
			if s == t {
				return true
			}
		}
	}
	return false
}

// checkDoubleTerminal flags two terminal emits in one straight-line
// statement list with no return between them.
func (c *Checker) checkDoubleTerminal(fd *ast.FuncDecl, writeFn string, terminal []string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		emitted := false
		for _, st := range block.List {
			switch {
			case isStmtReturn(st):
				emitted = false
			case emitted && stmtIsTerminalEmit(st, writeFn, terminal):
				c.Report(st.Pos(), "stream handler %s emits a second terminal frame on the same path: a stream terminates exactly once", fd.Name.Name)
			case stmtIsTerminalEmit(st, writeFn, terminal):
				emitted = true
			}
		}
		return true
	})
}

func isStmtReturn(st ast.Stmt) bool {
	_, ok := st.(*ast.ReturnStmt)
	return ok
}

// stmtIsTerminalEmit checks the statement itself (not nested blocks,
// which run on their own paths).
func stmtIsTerminalEmit(st ast.Stmt, writeFn string, terminal []string) bool {
	switch s := st.(type) {
	case *ast.ExprStmt:
		return isTerminalEmit(s.X, writeFn, terminal)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			if isTerminalEmit(e, writeFn, terminal) {
				return true
			}
		}
	}
	return false
}
