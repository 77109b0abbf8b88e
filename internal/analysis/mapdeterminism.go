package analysis

import (
	"go/ast"
	"go/types"
)

// determinismPackages are the packages whose result-reduction paths
// promise bit-for-bit identical output for any Parallelism (the PR 1/5
// trajectory invariant). The batched-inference layers (gnn, omla,
// subgraph) are included because the search trajectories are pinned by
// golden tests — a map-ordered fold anywhere in extraction, packing, or
// readout would break them. Matched by the last path element so
// testdata stand-ins qualify too.
var determinismPackages = []string{
	"engine", "anneal", "core", "experiments", "service",
	"gnn", "omla", "subgraph",
}

// MapDeterminism flags `range` over a map inside the determinism-critical
// packages. Go randomizes map iteration order, so any reduction folded in
// map order breaks the jobs-invariant trajectory promise. Two shapes are
// allowed without a directive:
//
//   - test files (_test.go), where reductions don't feed results;
//   - pure key/value collection — a body consisting solely of
//     `s = append(s, ...)` statements — because the collector is
//     expected to sort before the slice is consumed.
//
// Anything else needs a sorted key slice, or a
// //almost:nolint mapdeterminism directive arguing why order cannot
// reach results.
var MapDeterminism = &Analyzer{
	Name: "mapdeterminism",
	Doc:  "report map iteration in result-reduction paths of engine/anneal/core/experiments/service/gnn/omla/subgraph",
	Run:  runMapDeterminism,
}

func runMapDeterminism(pass *Pass) error {
	applies := false
	for _, name := range determinismPackages {
		if pkgPathTail(pass.Pkg.Path(), name) {
			applies = true
			break
		}
	}
	if !applies {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if isPureCollection(rng.Body) {
				return true
			}
			pass.Reportf(rng.Pos(), "map iteration order is random: this range can fold results nondeterministically; iterate a sorted key slice instead")
			return true
		})
	}
	return nil
}

// isPureCollection reports whether every statement in body has the shape
// `x = append(x, ...)` — an order-insensitive collection the caller is
// expected to sort.
func isPureCollection(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, st := range body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" || len(call.Args) == 0 {
			return false
		}
		lhs := exprString(as.Lhs[0])
		// An unrenderable shape (e.g. a pointer deref) must not match
		// another unrenderable shape by both collapsing to "".
		if lhs == "" || exprString(call.Args[0]) != lhs {
			return false
		}
	}
	return true
}

// exprString renders a simple ident/selector chain ("a.b.c") for
// structural comparison; other shapes render as "".
func exprString(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprString(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}
