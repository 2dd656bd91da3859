package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatOrder generalizes maporder's floating-point sink to sort-free
// reductions: float addition is not associative, so the repository fixes
// ascending-index summation as the canonical order (DESIGN.md §8 — the SINR
// engine's full sum visits every listener's transmitters in ascending index,
// and the certificate, which sums in ring order, decides a listener only by
// a margin that exceeds the difference). Two accumulation shapes violate it:
//
//   - a compound float accumulation inside a descending for loop, driven by
//     the descending variable: the sum visits values in reverse index
//     order, so it differs from the ascending reference even though each
//     run is internally deterministic;
//   - a compound float accumulation fed from a channel receive (directly,
//     or via a `for v := range ch` loop): with more than one sender the
//     arrival order is scheduling-dependent, so the sum varies run to run.
//     Collect per-worker partial sums instead and merge them in fixed
//     worker order — the Welford-merge idiom internal/runner uses.
//
// Accumulators declared inside the loop itself are per-iteration and
// order-insensitive; integer accumulation is associative and always legal.
var FloatOrder = &Analyzer{
	Name:          "floatorder",
	Doc:           "flag floating-point accumulation fed from descending loops or channel receives, which breaks ascending-order summation",
	SkipTestFiles: true,
	Run:           floatorder,
}

func floatorder(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFloatOrder(pass, fd)
		}
	}
	return nil
}

func checkFloatOrder(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || !floatAccumulation(info, as) {
			stack = append(stack, n)
			return true
		}
		mentioned := stmtObjs(info, as)
		if receivesFromChannel(info, as) {
			pass.Reportf(as.Pos(), "floating-point accumulation from a channel receive depends on goroutine scheduling order; accumulate per-worker partial sums and merge them in fixed worker order (or //crlint:allow floatorder <reason>)")
		} else {
			for i := len(stack) - 1; i >= 0; i-- {
				loop, ok := stack[i].(ast.Stmt)
				if !ok {
					continue
				}
				switch l := stack[i].(type) {
				case *ast.ForStmt:
					v := descendingVar(info, l)
					if v != nil && mentioned[v] && !accumulatorLocal(info, as, loop) {
						pass.Reportf(as.Pos(), "floating-point accumulation driven by the descending loop on line %d sums in reverse index order; the determinism contract fixes ascending-index summation — iterate ascending (or //crlint:allow floatorder <reason>)", pass.Fset.Position(l.Pos()).Line)
						i = 0
					}
				case *ast.RangeStmt:
					if chanValueVar(info, l, mentioned) && !accumulatorLocal(info, as, loop) {
						pass.Reportf(as.Pos(), "floating-point accumulation from a channel receive depends on goroutine scheduling order; accumulate per-worker partial sums and merge them in fixed worker order (or //crlint:allow floatorder <reason>)")
						i = 0
					}
				}
			}
		}
		stack = append(stack, n)
		return true
	})
}

// stmtObjs collects every object mentioned anywhere in the assignment.
func stmtObjs(info *types.Info, as *ast.AssignStmt) map[types.Object]bool {
	objs := map[types.Object]bool{}
	for _, e := range as.Lhs {
		for o := range exprObjs(info, e) {
			objs[o] = true
		}
	}
	for _, e := range as.Rhs {
		for o := range exprObjs(info, e) {
			objs[o] = true
		}
	}
	return objs
}

// receivesFromChannel reports whether any right-hand side contains a <-ch
// receive expression.
func receivesFromChannel(info *types.Info, as *ast.AssignStmt) bool {
	found := false
	for _, rhs := range as.Rhs {
		ast.Inspect(rhs, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				found = true
				return false
			}
			return !found
		})
	}
	return found
}

// descendingVar returns the loop variable of a descending for loop (post
// statement i-- or i -= ...), or nil.
func descendingVar(info *types.Info, fs *ast.ForStmt) types.Object {
	var target ast.Expr
	switch post := fs.Post.(type) {
	case *ast.IncDecStmt:
		if post.Tok == token.DEC {
			target = post.X
		}
	case *ast.AssignStmt:
		if post.Tok == token.SUB_ASSIGN && len(post.Lhs) == 1 {
			target = post.Lhs[0]
		}
	}
	root := rootIdent(target)
	if root == nil {
		return nil
	}
	if obj := info.Uses[root]; obj != nil {
		return obj
	}
	return info.Defs[root]
}

// chanValueVar reports whether rs ranges over a channel and the received
// value variable is among the mentioned objects.
func chanValueVar(info *types.Info, rs *ast.RangeStmt, mentioned map[types.Object]bool) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return false
	}
	id, ok := rs.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	return obj != nil && mentioned[obj]
}

// accumulatorLocal reports whether every accumulated left-hand side is
// declared inside the loop — a per-iteration temporary, reset each pass and
// therefore order-insensitive across iterations.
func accumulatorLocal(info *types.Info, as *ast.AssignStmt, loop ast.Stmt) bool {
	for _, lhs := range as.Lhs {
		root := rootIdent(lhs)
		if root == nil {
			return false
		}
		obj := info.Uses[root]
		if obj == nil {
			obj = info.Defs[root]
		}
		if obj == nil || obj.Pos() < loop.Pos() || obj.Pos() >= loop.End() {
			return false
		}
	}
	return true
}
