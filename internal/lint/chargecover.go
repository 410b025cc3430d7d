package lint

// chargecover proves the resource-governor invariant of the amplifier
// packages (pfa, sat, simplex, baseline): any allocation that can grow
// without bound — an append or a non-constant make reached from an
// unbounded cycle — must be metered by an engine.Ctx.Charge, so the
// budget governor observes memory amplification before it happens.
// Growth inside structurally bounded loops (ranges, counted loops
// whose bound does not grow) is input-linear and exempt. A site counts
// as covered when a Charge dominates it, when the cycle it sits in
// bills amortised (a Charge anywhere in the same cycle), or — one
// level up the call graph — when every static call site of the
// enclosing function is itself charge-covered.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

var chargeCover = &Analyzer{
	Name: "chargecover",
	Doc:  "growth sites in unbounded cycles not metered by an engine.Ctx.Charge",
	Scope: scopeFor("chargecover",
		"internal/pfa", "internal/sat", "internal/simplex", "internal/baseline",
		"internal/cluster"),
	Run: runChargeCover,
}

// loopInfo is one natural loop of a unit (all back edges of one
// header merged).
type loopInfo struct {
	header  *block
	blocks  map[*block]bool
	bounded bool
	charged bool // some block of the loop calls Charge directly
}

func runChargeCover(p *Pass) {
	for _, u := range p.Prog.unitsOf(p.Path) {
		g := p.Prog.cfgOf(u)
		loops := loopsOf(p, u, g)
		hasUnbounded := false
		for _, l := range loops {
			if !l.bounded {
				hasUnbounded = true
			}
		}
		if !hasUnbounded {
			continue
		}
		dom := dominators(g)
		chargeBlks := chargeBlocks(g)
		for _, site := range growthSites(p, u) {
			blk := blockContaining(g, site.pos)
			if blk == nil {
				continue
			}
			needs := false
			amortised := false
			for _, l := range loops {
				if l.bounded || !l.blocks[blk] {
					continue
				}
				needs = true
				if l.charged {
					amortised = true
				}
			}
			if !needs || amortised {
				continue
			}
			if dominatedByCharge(dom, chargeBlks, blk) {
				continue
			}
			if u.decl != nil && callersCharged(p, u) {
				continue
			}
			if has, justified := p.suppression(nochargeDirective, site.pos); has {
				if !justified {
					p.Report(site.pos, "chargecover", "//lint:nocharge needs a justification")
				}
				continue
			}
			if has, justified := p.suppression(nochargeDirective, u.encl.Pos()); has {
				if !justified {
					p.Report(site.pos, "chargecover", "//lint:nocharge needs a justification")
				}
				continue
			}
			p.Report(site.pos, "chargecover",
				site.what+" in an unbounded cycle is never metered; "+
					"Charge the growth on this path or //lint:nocharge <why it is bounded>")
		}
	}
}

// growthSite is one allocation that can amplify.
type growthSite struct {
	pos  token.Pos
	what string
}

// growthSites collects the appends and non-constant makes of a unit
// (nested literals excluded: they are their own units).
func growthSites(p *Pass, u *funcUnit) []growthSite {
	var out []growthSite
	inspectUnit(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		switch id.Name {
		case "append":
			if len(call.Args) > 0 {
				out = append(out, growthSite{call.Pos(), "append"})
			}
		case "make":
			for _, a := range call.Args[1:] {
				if tv, ok := p.Info.Types[a]; ok && tv.Value == nil {
					out = append(out, growthSite{call.Pos(), "make with non-constant size"})
					break
				}
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// loopsOf merges the back edges of each header into one loopInfo and
// classifies it.
func loopsOf(p *Pass, u *funcUnit, g *funcCFG) []*loopInfo {
	byHeader := map[*block]*loopInfo{}
	var out []*loopInfo
	for _, be := range backEdges(g) {
		l := byHeader[be.to]
		if l == nil {
			l = &loopInfo{header: be.to, blocks: map[*block]bool{}}
			l.bounded = be.to.loop != nil && boundedLoop(p, u, be.to.loop)
			byHeader[be.to] = l
			out = append(out, l)
		}
		for b := range naturalLoop(be) {
			l.blocks[b] = true
		}
	}
	for _, l := range out {
		for b := range l.blocks {
			if blockCharges(b) {
				l.charged = true
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].header.id < out[j].header.id })
	return out
}

// blockCharges reports a direct Charge call in the block.
func blockCharges(b *block) bool {
	found := false
	for _, n := range b.nodes {
		walkCalls(n, func(call *ast.CallExpr) {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Charge" {
				found = true
			}
		})
		if found {
			return true
		}
	}
	return false
}

func chargeBlocks(g *funcCFG) []*block {
	var out []*block
	for _, b := range g.blocks {
		if blockCharges(b) {
			out = append(out, b)
		}
	}
	return out
}

func dominatedByCharge(dom *domTree, charges []*block, blk *block) bool {
	for _, cb := range charges {
		if dom.dominates(cb, blk) {
			return true
		}
	}
	return false
}

// callersCharged applies the one-level interprocedural rule: every
// static call site of the function is dominated by a Charge in its
// caller or sits inside a caller cycle that charges. A function with
// no resolved call sites is not covered.
func callersCharged(p *Pass, u *funcUnit) bool {
	obj, ok := p.Info.Defs[u.decl.Name].(*types.Func)
	if !ok {
		return false
	}
	sites := p.Prog.callersOf(obj)
	if len(sites) == 0 {
		return false
	}
	for _, cs := range sites {
		if !callSiteCharged(p, cs) {
			return false
		}
	}
	return true
}

func callSiteCharged(p *Pass, cs callSite) bool {
	g := p.Prog.cfgOf(cs.unit)
	blk := blockContaining(g, cs.call.Pos())
	if blk == nil {
		return false
	}
	charges := chargeBlocks(g)
	if len(charges) == 0 {
		return false
	}
	if dominatedByCharge(dominators(g), charges, blk) {
		return true
	}
	for _, be := range backEdges(g) {
		nl := naturalLoop(be)
		if !nl[blk] {
			continue
		}
		for b := range nl {
			if blockCharges(b) {
				return true
			}
		}
	}
	return false
}
