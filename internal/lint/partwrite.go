package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PartWrite enforces the fixed-partition contract for intra-process
// parallelism (DESIGN.md §8): inside a `go func` closure launched from a
// loop — a worker-pool or fan-out shape, so several instances of the
// closure run concurrently — writes to captured slices, arrays, and struct
// fields must land in a partition the goroutine owns, i.e. be indexed by an
// expression derived from a goroutine-owned variable (a closure parameter,
// a variable declared inside the closure such as a channel-received index,
// or a per-iteration variable of the launching loop, which Go ≥1.22 gives
// each iteration its own instance of).
//
// The SINR delivery engine claims its listener tiles from a per-round
// counter on the caller and on helpers started as a named function, not a
// closure, each writing only its own worker slot's scratch and its tiles'
// listeners (internal/sinr/parallel.go); the loop-launched closures this
// analyzer checks are those of other fan-outs, such as the trial runner's
// workers.
//
// Three bug shapes are flagged:
//
//   - writes to a captured map: concurrent map writes fault at runtime no
//     matter how keys are partitioned;
//   - non-atomic counter bumps (x++, x += ...) on captured variables or
//     cells outside the goroutine's partition;
//   - plain writes to captured locations with no goroutine-owned index —
//     last-writer-wins races that break byte-identical reruns long before
//     the race detector sees them.
//
// A single goroutine launched outside any loop (the wait-then-close join
// idiom) is exempt, as is any closure that takes a lock: a body calling a
// Lock method is assumed mutex-guarded and left to the race detector.
// Channel sends are always legal — channels are the sanctioned way out of a
// goroutine.
var PartWrite = &Analyzer{
	Name:          "partwrite",
	Doc:           "require writes to captured state inside loop-launched goroutines to be partitioned by a goroutine-owned index",
	SkipTestFiles: true,
	Run:           partwrite,
}

func partwrite(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoroutines(pass, fd)
		}
	}
	return nil
}

// checkGoroutines finds every `go func(...){...}(...)` launched from inside
// a loop and checks the closure's captured writes.
func checkGoroutines(pass *Pass, fd *ast.FuncDecl) {
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if gs, ok := n.(*ast.GoStmt); ok {
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				// Innermost enclosing loop: the launch multiplicity.
				var loop ast.Stmt
				for i := len(stack) - 1; i >= 0 && loop == nil; i-- {
					switch s := stack[i].(type) {
					case *ast.ForStmt:
						loop = s
					case *ast.RangeStmt:
						loop = s
					case *ast.FuncLit:
						// A closure boundary resets the loop context: the
						// launching loop must be in the same function body.
						i = -1
					}
				}
				if loop != nil {
					checkClosureWrites(pass, loop, lit)
				}
			}
		}
		stack = append(stack, n)
		return true
	})
}

// checkClosureWrites flags unpartitioned writes to captured state inside one
// loop-launched goroutine closure.
func checkClosureWrites(pass *Pass, loop ast.Stmt, lit *ast.FuncLit) {
	info := pass.TypesInfo
	if takesLock(lit) {
		return
	}
	// A variable is goroutine-owned when it is declared inside the innermost
	// launching loop: closure parameters and closure-local variables (both
	// positioned inside the loop), and the loop's own per-iteration
	// variables. Variables declared before the loop — or belonging to an
	// outer loop, and therefore shared by every goroutine this loop launches
	// — are captured shared state.
	owned := func(obj types.Object) bool {
		return obj != nil && loop.Pos() <= obj.Pos() && obj.Pos() < loop.End()
	}
	check := func(lhs ast.Expr, compound bool) {
		root := rootIdent(lhs)
		if root == nil || root.Name == "_" {
			return
		}
		obj := info.Uses[root]
		if obj == nil {
			obj = info.Defs[root]
		}
		if obj == nil || owned(obj) {
			return
		}
		if mapWrite(info, lhs) {
			pass.Reportf(lhs.Pos(), "write to captured map %s inside a goroutine launched in a loop is a concurrent map write; communicate over a channel or give each goroutine its own map (//crlint:allow partwrite <reason>)", root.Name)
			return
		}
		if partitionedBy(info, lhs, owned) {
			return
		}
		if compound {
			pass.Reportf(lhs.Pos(), "non-atomic update of captured %s inside a goroutine launched in a loop; use sync/atomic, a channel, or a per-worker cell indexed by the goroutine's own worker id (//crlint:allow partwrite <reason>)", root.Name)
			return
		}
		pass.Reportf(lhs.Pos(), "write to captured %s inside a goroutine launched in a loop is not partitioned by a goroutine-owned index; write into a fixed partition derived from the worker/tile variable, such as the worker's own slot (//crlint:allow partwrite <reason>)", root.Name)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			compound := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				check(lhs, compound)
			}
		case *ast.IncDecStmt:
			check(n.X, true)
		}
		return true
	})
}

// takesLock reports whether the closure body calls a Lock method — the
// mutex-guarded idiom partwrite leaves to the race detector.
func takesLock(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mapWrite reports whether the write target indexes into a map anywhere
// along its chain (m[k] = v, s.m[k].f = v, ...).
func mapWrite(info *types.Info, lhs ast.Expr) bool {
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			if t := info.TypeOf(e.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					return true
				}
			}
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		default:
			return false
		}
	}
}

// partitionedBy reports whether some index expression along the write
// target's chain mentions a goroutine-owned variable — the fixed-partition
// shape a[w], res.Values[i], tiles[base+t].
func partitionedBy(info *types.Info, lhs ast.Expr, owned func(types.Object) bool) bool {
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			for obj := range exprObjs(info, e.Index) {
				if owned(obj) {
					return true
				}
			}
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		default:
			return false
		}
	}
}
