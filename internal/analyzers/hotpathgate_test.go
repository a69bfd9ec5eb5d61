package analyzers_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"carbonexplorer/internal/analyzers/directive"
	"carbonexplorer/internal/analyzers/load"
)

// TestHotpathMarkersNameZeroAllocGatedSymbols pins the correspondence
// between the two halves of the zero-allocation contract. The runtime
// gates (TestEvaluateSteadyStateZeroAllocs in internal/explorer,
// TestOptimumZeroAllocs in internal/serve) measure that specific call
// trees allocate nothing in the steady state; the //carbonlint:hotpath
// markers make hotalloc reject allocating constructs in those same
// functions statically, on every carbonlint run rather than only when the
// right test executes. This census is exact per package: annotating a new
// function (or dropping a marker) in one of these packages must update it,
// so the static and runtime gates cannot silently drift apart.
func TestHotpathMarkersNameZeroAllocGatedSymbols(t *testing.T) {
	root, err := load.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}

	// Each entry lists every function on the corresponding runtime gate's
	// steady-state call path. Evaluate's tree descends through the
	// scheduler's scratch simulation and the timeseries kernels; Optimum's
	// through the frontier comparison and binary-search helpers.
	hotpath := map[string][]string{
		"internal/explorer":   {"CellModel.Bounds", "Evaluator.Evaluate", "Evaluator.ensureSupply", "Reachable"},
		"internal/scheduler":  {"Scratch.pullDeferred", "SimulateScratch"},
		"internal/serve":      {"Snapshot.FrontierBounds", "Snapshot.Optimum", "betterPoint", "countGEDesc", "countLE", "countLT"},
		"internal/timeseries": {"Series.ScaleAddInto", "Zero"},
	}
	// The serve read path's no-locks guarantee rests on these types never
	// being written after Load; pubfreeze enforces that outside index.go.
	immutable := map[string][]string{
		"internal/serve": {"Index", "Snapshot"},
	}

	for dir, want := range hotpath {
		m := scanDirMarkers(t, filepath.Join(root, dir))
		var got []string
		for fn := range m.Hotpath {
			got = append(got, funcName(fn))
		}
		sort.Strings(got)
		if !equalStrings(got, want) {
			t.Errorf("%s: //carbonlint:hotpath census = %v, want %v (update the marker or this census together)", dir, got, want)
		}
	}
	for dir, want := range immutable {
		m := scanDirMarkers(t, filepath.Join(root, dir))
		var got []string
		for id := range m.Immutable {
			got = append(got, id.Name)
		}
		sort.Strings(got)
		if !equalStrings(got, want) {
			t.Errorf("%s: //carbonlint:immutable census = %v, want %v", dir, got, want)
		}
	}
}

// scanDirMarkers parses a package directory's non-test sources and scans
// their carbonlint markers, failing the test on malformed ones (selflint
// would also catch those, but a local failure points at the right file).
func scanDirMarkers(t *testing.T, dir string) directive.Markers {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	m := directive.ScanMarkers(files)
	for _, d := range append(m.HotpathDiags, m.ImmutableDiags...) {
		t.Errorf("%s: malformed marker: %s", fset.Position(d.Pos), d.Message)
	}
	return m
}

// funcName renders a declaration as Receiver.Name (or Name for plain
// functions), matching how the census above spells symbols.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return fmt.Sprintf("%s.%s", id.Name, fn.Name.Name)
	}
	return fn.Name.Name
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
