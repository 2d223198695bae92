package dacpara

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed names the functions that no command, service path,
// example or benchmark reaches by name and that stay all the same. A
// bare name exempts every method of that name (the standard library
// calls it through an interface); a qualified name exempts one function
// or method, written as import path, receiver type (for a method) and
// name. Each entry carries its reason.
var reachAllowed = map[string]string{
	// Called by the standard library through an interface.
	"Error":     "error: fmt, errors and log call it",
	"String":    "fmt.Stringer and flag.Value: fmt and flag call it",
	"Unwrap":    "errors.Is and errors.As call it",
	"RoundTrip": "http.RoundTripper: http.Client calls it",

	// Oracles and test corpora: independent references the tests hold
	// the production paths to.
	"dacpara/internal/aig.RandomSignature":          "oracle: random-simulation signature of every PO",
	"dacpara/internal/aig.Simulator.RunBatch":       "oracle: bit-parallel simulation in batches",
	"dacpara/internal/aig.AIG.DerefCone":            "oracle: MFFC size by reference counting",
	"dacpara/internal/aig.AIG.RefCone":              "oracle: undoes DerefCone",
	"dacpara/internal/aig.AIG.ReplacePO":            "test corpus: rewires an output to build hazards",
	"dacpara/internal/aig.AIG.PO":                   "test corpus: reads an output back",
	"dacpara/internal/bigtt.ISOP":                   "oracle: the reference cover the arena ISOP is fuzzed against",
	"dacpara/internal/bigtt.CoverTable":             "oracle: the function a cover computes",
	"dacpara/internal/bigtt.TT.AndNot":              "oracle: cover checks in the ISOP tests",
	"dacpara/internal/tt.Func64.PermuteVars":        "oracle: the NPN transforms are checked against it",
	"dacpara/internal/rewlib.Library.Structures":    "inspection: the library content pins read it",
	"dacpara/internal/rewlib.Library.NPN":           "inspection: the library content pins read it",
	"dacpara/internal/rewlib.Library.MaxStructures": "inspection: the library tests read it",
	"dacpara/internal/rewlib.SLit.IsInput":          "inspection: the structure tests read it",
	"dacpara/internal/cut.Manager.Holds":            "inspection: the release tests read which entries hold storage",
	"dacpara/internal/bench.Adder":                  "test corpus: the smallest arithmetic circuit",
	"dacpara/internal/bench.KernelSet":              "test corpus: the kernel gates' circuits",
	"dacpara/internal/bench.FlowVerified":           "test corpus: the flow_verified circuits",
	"dacpara/internal/tt.Func64.Eval":               "oracle: one row of a truth table",
	"dacpara/internal/bigtt.TT.Eval":                "oracle: one row of a truth table",
	"dacpara/internal/lutmap.Evaluate":              "oracle: a mapping evaluated LUT by LUT",
	"dacpara/internal/journal.Encode":               "test corpus: framed records for the replay and fuzz tests",
	"dacpara/internal/sat.Solver.Solve":             "oracle: the unbudgeted search the solver tests call",

	// Seams the tests drive a service through.
	"dacpara/internal/serve.Service.crashForTest": "seam: recovery tests stop a service as a crash would",
	"dacpara/internal/serve.Job.Started":          "seam: tests wait for a job to leave the queue",

	// The cluster and its chaos harness stay whole until their trial
	// (ROADMAP item 2) decides; their tests read these.
	"dacpara/internal/cluster.Worker.Registered":   "cluster trial: worker counters the cluster tests read",
	"dacpara/internal/cluster.Worker.Executed":     "cluster trial: worker counters the cluster tests read",
	"dacpara/internal/cluster.Worker.BreakerTrips": "cluster trial: worker counters the cluster tests read",
	"dacpara/internal/cluster.Worker.ReRegistered": "cluster trial: worker counters the cluster tests read",
	"dacpara/internal/cluster.Worker.Kill":         "cluster trial: the failover tests kill a worker",
	"dacpara/internal/chaos.Plan.Schedule":         "cluster trial: the chaos suite's fault schedule",
	"dacpara/internal/chaos.Plan.Replay":           "cluster trial: replays a failing chaos seed",
	"dacpara/internal/chaos.Transport.TraceString": "cluster trial: the chaos suite's failure trace",
}

// reachDecl is one package-level declaration: a function, a method or a
// var/const/type spec.
type reachDecl struct {
	pkg     string            // import path
	key     string            // pkg.Name or pkg.Recv.Name
	imports map[string]string // the file's imports: local name → import path
	node    ast.Node
	fn      bool // a function or method: reported when unreached
}

// TestEveryFunctionIsReached walks, name by name, from what a run can
// execute — every main package (cmd/, examples/), everything under
// benchmark/, init functions and package-level vars — through the
// non-test Go of both modules, build tags ignored, and fails naming each
// function it never reaches. A method is reached when any reached code
// selects its name, whatever the receiver, so the walk only ever keeps
// too much.
func TestEveryFunctionIsReached(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string][]*reachDecl{} // package-level names and methods
	methods := map[string][]string{}   // method name → keys
	pkgNames := map[string]string{}    // import path → package name
	var roots []*reachDecl
	var files []*ast.File
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("dacpara", filepath.ToSlash(filepath.Dir(p)))
		pkgNames[pkg] = f.Name.Name
		files = append(files, f)
		paths = append(paths, pkg)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		pkg := paths[i]
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value) // the parser accepted it
			local := path.Base(ip)
			if n, ok := pkgNames[ip]; ok {
				local = n
			}
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = ip
		}
		inBench := strings.HasPrefix(pkg, "dacpara/benchmark")
		add := func(d *reachDecl, root bool) {
			decls[d.key] = append(decls[d.key], d)
			if root || inBench {
				roots = append(roots, d)
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				d := &reachDecl{pkg: pkg, key: pkg + "." + name, imports: imports, node: decl, fn: true}
				if decl.Recv != nil {
					d.key = pkg + "." + recvName(decl.Recv.List[0].Type) + "." + name
					methods[name] = append(methods[name], d.key)
				}
				root := decl.Recv == nil && (name == "init" || name == "main" && f.Name.Name == "main")
				add(d, root)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(&reachDecl{pkg: pkg, key: pkg + "." + n.Name, imports: imports, node: spec}, decl.Tok == token.VAR)
						}
					case *ast.TypeSpec:
						add(&reachDecl{pkg: pkg, key: pkg + "." + spec.Name.Name, imports: imports, node: spec}, false)
					}
				}
			}
		}
	}

	reached := map[string]bool{}
	var work []*reachDecl
	reach := func(key string) {
		if !reached[key] {
			reached[key] = true
			work = append(work, decls[key]...)
		}
	}
	for _, d := range roots {
		reach(d.key)
	}
	for entry := range reachAllowed {
		if strings.Contains(entry, "/") {
			if len(decls[entry]) == 0 {
				t.Errorf("allowlist entry %s names no function", entry)
			}
			reach(entry)
			continue
		}
		if len(methods[entry]) == 0 {
			t.Errorf("allowlist entry %s names no method", entry)
		}
		for _, key := range methods[entry] {
			reach(key)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := d.imports[x.Name]; ok {
						reach(ip + "." + n.Sel.Name)
						return false
					}
				}
				for _, key := range methods[n.Sel.Name] {
					reach(key)
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				reach(d.pkg + "." + n.Name)
			}
			return true
		}
		if fd, ok := d.node.(*ast.FuncDecl); ok {
			ast.Inspect(fd.Type, visit)
			if fd.Body != nil {
				ast.Inspect(fd.Body, visit)
			}
			continue
		}
		ast.Inspect(d.node, visit)
	}

	var missed []string
	for key, ds := range decls {
		for _, d := range ds {
			if d.fn && !reached[key] {
				missed = append(missed, fset.Position(d.node.Pos()).String()+": "+key)
			}
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Errorf("no run reaches %s", m)
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P] and
// *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
