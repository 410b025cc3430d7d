package lint

// pollpath proves the cooperative-cancellation invariant of the hot
// solver packages: every cycle a solve can stay in for an unbounded
// number of iterations must observe the engine context — via Poll,
// Expired, or Charge (which polls) — on EVERY path through the cycle,
// so a deadline, budget trip, or the cancellation of a losing parallel
// case-split branch always reaches it. The predecessor check (ctxpoll) was syntactic: it only
// looked at `for {}` loops and only for a poll call anywhere in the
// body. pollpath walks the CFG instead: it finds every back edge,
// skips loops whose iteration count is structurally bounded (range
// loops, counted for-loops whose bound does not grow inside the
// loop), and then searches the natural loop for a path from header to
// latch that crosses no polling block — including polls performed by
// one level of statically resolved callees that poll on all their own
// paths.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

var pollPath = &Analyzer{
	Name:  "pollpath",
	Doc:   "unbounded solver cycles with a path that never polls the engine context",
	Scope: scopeFor("pollpath", "internal/sat", "internal/simplex", "internal/cluster"),
	Run:   runPollPath,
}

// pollMethods are the engine.Ctx methods that count as observing
// cancellation. Charge polls as part of billing.
var pollMethods = map[string]bool{"Poll": true, "Expired": true, "Charge": true}

func runPollPath(p *Pass) {
	for _, u := range p.Prog.unitsOf(p.Path) {
		g := p.Prog.cfgOf(u)
		byHeader := map[*block][]backEdge{}
		var headers []*block
		for _, be := range backEdges(g) {
			if len(byHeader[be.to]) == 0 {
				headers = append(headers, be.to)
			}
			byHeader[be.to] = append(byHeader[be.to], be)
		}
		sort.Slice(headers, func(i, j int) bool { return headers[i].id < headers[j].id })
		for _, header := range headers {
			if header.loop != nil && boundedLoop(p, u, header.loop) {
				continue
			}
			if !cycleMissesPoll(p, byHeader[header]) {
				continue
			}
			pos := loopPos(header)
			if has, justified := p.suppression(nopollDirective, pos); has {
				if !justified {
					p.Report(pos, "pollpath", "//lint:nopoll needs a justification")
				}
				continue
			}
			p.Report(pos, "pollpath",
				"unbounded cycle has a path that never polls the solve context; "+
					"add a ctx.Poll()/Charge() on every path or //lint:nopoll <why it is bounded>")
		}
	}
}

// loopPos is the position findings and suppressions anchor to: the
// loop keyword when the header belongs to a for/range statement, the
// first statement of the header otherwise (goto cycles).
func loopPos(header *block) token.Pos {
	if header.loop != nil {
		return header.loop.Pos()
	}
	if len(header.nodes) > 0 {
		return header.nodes[0].Pos()
	}
	return token.NoPos
}

// cycleMissesPoll reports whether some path through the cycle closed
// by the back edges (all targeting one header) avoids every polling
// block.
func cycleMissesPoll(p *Pass, edges []backEdge) bool {
	header := edges[0].to
	if blockPolls(p, header) {
		return false
	}
	inLoop := map[*block]bool{}
	targets := map[*block]bool{}
	for _, e := range edges {
		targets[e.from] = true
		for b := range naturalLoop(e) {
			inLoop[b] = true
		}
	}
	if targets[header] {
		return true // self-loop on a non-polling header
	}
	visited := map[*block]bool{header: true}
	stack := []*block{header}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.succs {
			if !inLoop[s] || visited[s] {
				continue
			}
			if blockPolls(p, s) {
				continue
			}
			if targets[s] {
				return true
			}
			visited[s] = true
			stack = append(stack, s)
		}
	}
	return false
}

// blockPolls reports whether executing the block necessarily reaches a
// poll: a direct Poll/Expired/Charge call, or a call to a statically
// resolved module function that polls on every one of its own paths.
func blockPolls(p *Pass, b *block) bool {
	found := false
	for _, n := range b.nodes {
		walkCalls(n, func(call *ast.CallExpr) {
			if found {
				return
			}
			if isDirectPoll(call) {
				found = true
				return
			}
			if f := staticCallee(p.Info, call); f != nil {
				if u := p.Prog.unitFor(f); u != nil && alwaysPolls(p.Prog, u) {
					found = true
				}
			}
		})
		if found {
			return true
		}
	}
	return false
}

// isDirectPoll matches a call of a method named Poll/Expired/Charge.
func isDirectPoll(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && pollMethods[sel.Sel.Name]
}

// alwaysPolls reports whether every entry-to-exit path of the unit
// crosses a direct poll call. The summary is one level deep on
// purpose: it does not recurse into the unit's own callees, so the
// interprocedural search cannot loop.
func alwaysPolls(pr *Program, u *funcUnit) bool {
	if v, ok := pr.pollMemo[u]; ok {
		return v
	}
	g := pr.cfgOf(u)
	directPolls := func(b *block) bool {
		found := false
		for _, n := range b.nodes {
			walkCalls(n, func(call *ast.CallExpr) {
				if isDirectPoll(call) {
					found = true
				}
			})
			if found {
				return true
			}
		}
		return false
	}
	// Exit unreachable through non-polling blocks => always polls.
	reachesExit := false
	visited := map[*block]bool{}
	var stack []*block
	if !directPolls(g.entry) {
		visited[g.entry] = true
		stack = append(stack, g.entry)
	}
	for len(stack) > 0 && !reachesExit {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == g.exit {
			reachesExit = true
			break
		}
		for _, s := range b.succs {
			if visited[s] || directPolls(s) {
				continue
			}
			visited[s] = true
			stack = append(stack, s)
		}
	}
	v := !reachesExit
	pr.pollMemo[u] = v
	return v
}

// walkCalls visits the call expressions of a node, skipping nested
// function literals (they may never run on this path) and go/defer
// statements (their calls run elsewhere or at return, not on the
// cycle's iteration path).
func walkCalls(n ast.Node, f func(*ast.CallExpr)) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			f(m)
		}
		return true
	})
}

// boundedLoop classifies a loop statement as structurally bounded:
// a range over anything but a channel, or a counted for-loop
// (init; i OP bound; i++/i--) whose bound does not grow inside the
// loop. A counted loop over `len(x)` where x is appended to in the
// loop body — or in a function literal of the same enclosing function,
// the worklist idiom — is NOT bounded.
func boundedLoop(p *Pass, u *funcUnit, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.RangeStmt:
		if t := p.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return false
			}
		}
		return true
	case *ast.ForStmt:
		if s.Init == nil || s.Cond == nil || s.Post == nil {
			return false
		}
		iv := countedInit(p, s.Init)
		if iv == nil || !countedPost(p, s.Post, iv) {
			return false
		}
		bound := countedBound(p, s.Cond, iv)
		if bound == nil {
			return false
		}
		for _, obj := range lenTargets(p, bound) {
			if growsIn(p, u, s.Body, obj) {
				return false
			}
		}
		return true
	}
	return false
}

// countedInit matches `i := e` or `i = e` and returns i's object.
func countedInit(p *Pass, s ast.Stmt) types.Object {
	as, ok := s.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// countedPost matches i++/i--/i+=e/i-=e on the induction variable.
func countedPost(p *Pass, s ast.Stmt, iv types.Object) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		id, ok := s.X.(*ast.Ident)
		return ok && p.Info.Uses[id] == iv
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || (s.Tok != token.ADD_ASSIGN && s.Tok != token.SUB_ASSIGN) {
			return false
		}
		id, ok := s.Lhs[0].(*ast.Ident)
		return ok && p.Info.Uses[id] == iv
	}
	return false
}

// countedBound matches `i OP bound` (or `bound OP i`) and returns the
// bound expression.
func countedBound(p *Pass, cond ast.Expr, iv types.Object) ast.Expr {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch be.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
	default:
		return nil
	}
	isIV := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && p.Info.Uses[id] == iv
	}
	if isIV(be.X) {
		return be.Y
	}
	if isIV(be.Y) {
		return be.X
	}
	return nil
}

// lenTargets returns the objects measured by len(...) calls inside e.
func lenTargets(p *Pass, e ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "len" {
			return true
		}
		if b, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "len" {
			return true
		}
		if obj := objOfExpr(p, call.Args[0]); obj != nil {
			out = append(out, obj)
		}
		return true
	})
	return out
}

// objOfExpr resolves an identifier or field selector to its object.
func objOfExpr(p *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.Info.Uses[e]
	case *ast.SelectorExpr:
		return p.Info.Uses[e.Sel]
	}
	return nil
}

// growsIn reports whether obj is appended to inside body or inside any
// function literal of the enclosing unit (a closure the loop may call
// to push work).
func growsIn(p *Pass, u *funcUnit, body ast.Node, obj types.Object) bool {
	appends := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "append" {
				return true
			}
			if objOfExpr(p, call.Args[0]) == obj {
				found = true
				return false
			}
			return true
		})
		return found
	}
	if appends(body) {
		return true
	}
	grown := false
	ast.Inspect(u.body, func(m ast.Node) bool {
		if grown {
			return false
		}
		if lit, ok := m.(*ast.FuncLit); ok {
			if appends(lit.Body) {
				grown = true
				return false
			}
		}
		return true
	})
	return grown
}
