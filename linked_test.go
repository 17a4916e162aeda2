package rad_test

// Every function declared outside a _test.go file must run in a binary the
// repository ships: the nine commands, the six examples and perfbench. The
// test builds them with inlining off, so a function missing from every
// symbol table was dropped by the linker, not inlined, and compares their
// symbols with the declarations go/parser finds. A function no binary links
// stays only in testedOnly, naming the test that watches shipped behaviour
// through it. The root package is a facade the binaries do not import, so it
// answers to a different rule: every exported rad.go name is referenced as
// rad.X by an example or a root rad_test file.

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testedOnly maps each function that no binary links to the test that
// asserts behaviour through it. The key is the function's symbol as
// `go tool nm` prints it; the named test's body must mention the function,
// or another listed function of its package that calls it.
// Add an entry only for a function that is how a test observes behaviour a
// binary runs (a receive API, a reader of an export, a clock control). A
// function that is itself the subject of its test ships in no binary, and
// is deleted with its test instead.
var testedOnly = map[string]string{
	// Receive APIs. A binary's subscribers drain the ring over the wire
	// (the listener's drain), and its tails read through the resilient
	// client; tests read the same ring and handoff in process.
	"rad/internal/stream.(*Broker).Publish":         "TestPublishDeliversInOrder",
	"rad/internal/stream.(*Subscriber).Recv":        "TestStreamIDSCleanRunRaisesNoAlerts",
	"rad/internal/stream.(*Subscriber).TryRecv":     "TestPublishDeliversInOrder",
	"rad/internal/stream.(*Subscriber).take":        "TestPublishDeliversInOrder",
	"rad/internal/stream.(*ResilientTail).Stats":    "TestReconnectResilientTailResumesAcrossRestart",
	"rad/internal/store.(*MemStore).Runs":           "TestTraceDBQueryParityWithMemStore",
	"rad/internal/fleet.(*Router).Lookup":           "TestFleetRouterRouting",
	"rad/internal/obs.(*Histogram).Count":           "TestObsHistogramConcurrentObserveWhileRender",
	"rad/internal/experiments.Fig6Result.BlockMean": "TestFig6BlockStructure",

	// Readers of the exports the binaries write, and an encoder of the
	// blocks they read.
	"rad/internal/store.ReadCSV":     "TestGoldenExportFormats",
	"rad/internal/store.splitArgs":   "TestGoldenExportFormats",
	"rad/internal/store.ReadJSONL":   "TestGoldenExportFormats",
	"rad/internal/store.AppendBlock": "FuzzBlockReader",

	// Clock and simulator controls, and the state the simulators keep.
	"rad/internal/simclock.(*Virtual).Advance":        "TestStatusPollingDuringMove",
	"rad/internal/power.(*Monitor).RecordQuiescent":   "TestMultipleSubscribersIndependent",
	"rad/internal/power.(*Monitor).Payload":           "TestSetPayloadClampsNegative",
	"rad/internal/power.(*Monitor).Pose":              "TestResetClearsSamplesKeepsPose",
	"rad/internal/device/ur3e.(*UR3e).Pose":           "TestMoveToLocationAdvancesClockAndRecordsPower",
	"rad/internal/device/quantos.(*Quantos).DoorOpen": "TestDoorStateTracked",
	"rad/internal/robot.Profile.Peak":                 "TestProfileTriangularPeakBelowVmax",
	"rad/internal/robot.LocationNames":                "TestAllNamedLocationsResolve",

	// What the analyses learned and decided.
	"rad/internal/ids.(*PerplexityDetector).Anomalous": "TestPerplexityDetectorSeparates",
	"rad/internal/ids.(*ArgAwareDetector).Anomalous":   "TestArgAwareDetectorSeparatesTamperedArgs",
	"rad/internal/ids.(*ProcedureClassifier).Labels":   "TestProcedureClassifier",
	"rad/internal/ids.(*PowerDetector).Labels":         "TestPowerDetectorMatchesAndFlags",
	"rad/internal/analysis/specmine.Spec.Commands":     "TestMineRoundTripCommands",
	"rad/internal/attack.Outcome.Attacked":             "TestScenarioRunEndToEnd",
}

func TestEveryFunctionIsLinked(t *testing.T) {
	bin := t.TempDir()
	goBuild(t, ".", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	goBuild(t, "perfbench", "-o", filepath.Join(bin, "perfbench"), ".")
	linked := linkedSymbols(t, bin)

	src := parseModule(t)
	for _, fn := range src.funcs {
		entry, listed := testedOnly[fn.symbol]
		isLinked := fn.linkedIn(linked)
		switch {
		case isLinked && listed:
			t.Errorf("%s (%s) is linked; delete its testedOnly entry", fn.symbol, fn.pos)
		case !isLinked && !listed:
			t.Errorf("%s (%s) is linked into no binary: delete it, call it from a binary, or list it in testedOnly with the test that asserts behaviour through it", fn.symbol, fn.pos)
		case listed && len(src.tests[entry]) == 0:
			t.Errorf("testedOnly[%s] names %s, which is no test", fn.symbol, entry)
		case listed && !src.observes(entry, fn):
			t.Errorf("testedOnly[%s] names %s, which does not call %s", fn.symbol, entry, fn.name)
		}
	}
	for symbol := range testedOnly {
		if _, ok := src.declared[symbol]; !ok {
			t.Errorf("testedOnly lists %s, which is declared nowhere outside tests", symbol)
		}
	}

	for _, name := range src.facade {
		if !src.facadeUses[name] {
			t.Errorf("rad.%s is referenced by no example and no root test: delete it or use it", name)
		}
	}
}

// goBuild builds the main packages of patterns, run from dir, with inlining
// off.
func goBuild(t *testing.T, dir string, args ...string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l"}, args...)...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out)
	}
}

// binarySymbols holds the text symbols of the built binaries: a main
// package's functions are all named main.F, so those are kept per binary.
type binarySymbols struct {
	lib  map[string]bool
	main map[string]map[string]bool // binary name → main.* symbols
}

func linkedSymbols(t *testing.T, bin string) binarySymbols {
	t.Helper()
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"tool", "nm"}
	for _, e := range entries {
		args = append(args, filepath.Join(bin, e.Name()))
	}
	if len(entries) < 2 {
		t.Fatalf("built %d binaries", len(entries))
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go tool nm: %v", err)
	}
	syms := binarySymbols{lib: map[string]bool{}, main: map[string]map[string]bool{}}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		file, rest, _ := strings.Cut(sc.Text(), ":")
		f := strings.Fields(rest)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		if sym, ok := strings.CutPrefix(f[2], "main."); ok {
			name := filepath.Base(file)
			if syms.main[name] == nil {
				syms.main[name] = map[string]bool{}
			}
			syms.main[name]["main."+sym] = true
		} else {
			syms.lib[f[2]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return syms
}

// declaredFunc is one non-generic function or method declared outside
// tests.
type declaredFunc struct {
	symbol string // as go tool nm prints it: pkg.F, pkg.(*T).M or pkg.T.M
	alt    string // a value method's pointer-receiver wrapper, pkg.(*T).M
	binary string // for a main package, the binary it builds
	pkg    string
	name   string          // the bare function name a test calls
	body   map[string]bool // the identifiers its body mentions
	pos    string          // file:line
}

func (fn declaredFunc) linkedIn(s binarySymbols) bool {
	syms := s.lib
	if fn.binary != "" {
		syms = s.main[fn.binary]
	}
	return syms[fn.symbol] || (fn.alt != "" && syms[fn.alt])
}

type moduleSource struct {
	funcs    []declaredFunc
	declared map[string]bool
	// tests maps a test's name to the identifiers each test of that name
	// mentions (names repeat across packages).
	tests map[string][]map[string]bool
	// facade lists rad.go's exported names; facadeUses the ones an example
	// or a root rad_test file references as rad.X.
	facade     []string
	facadeUses map[string]bool
}

// observes reports whether test calls fn, directly or through another
// listed function of fn's package (as Recv calls take).
func (m moduleSource) observes(test string, fn declaredFunc) bool {
	for _, idents := range m.tests[test] {
		if idents[fn.name] {
			return true
		}
		for _, g := range m.funcs {
			if _, listed := testedOnly[g.symbol]; listed && g.pkg == fn.pkg && g.body[fn.name] && idents[g.name] {
				return true
			}
		}
	}
	return false
}

// parseModule parses every Go file of the module and of perfbench, which
// replaces the module with this directory.
func parseModule(t *testing.T) moduleSource {
	t.Helper()
	m := moduleSource{
		declared:   map[string]bool{},
		tests:      map[string][]map[string]bool{},
		facadeUses: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		switch {
		case isTest:
			m.addTests(f)
		case dir == ".":
			if path == "rad.go" {
				m.facade = exportedNames(f)
			}
		default:
			m.addFuncs(fset, f, dir)
		}
		if dir == "examples" || strings.HasPrefix(dir, "examples/") || (dir == "." && f.Name.Name == "rad_test") {
			markFacadeUses(f, m.facadeUses)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.funcs) == 0 || len(m.facade) == 0 {
		t.Fatalf("parsed %d functions and %d rad.go names", len(m.funcs), len(m.facade))
	}
	return m
}

func (m *moduleSource) addFuncs(fset *token.FileSet, f *ast.File, dir string) {
	pkg, binary := "rad/"+dir, ""
	if f.Name.Name == "main" {
		pkg, binary = "main", filepath.Base(dir)
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Name.Name == "_" || fd.Name.Name == "init" || fd.Type.TypeParams != nil {
			continue
		}
		fn := declaredFunc{symbol: pkg + "." + fd.Name.Name, binary: binary, pkg: dir, name: fd.Name.Name,
			body: identifiers(fd.Body), pos: fset.Position(fd.Pos()).String()}
		if fd.Recv != nil {
			typ, ptr := fd.Recv.List[0].Type, false
			if star, ok := typ.(*ast.StarExpr); ok {
				typ, ptr = star.X, true
			}
			id, ok := typ.(*ast.Ident)
			if !ok {
				continue // a method of a generic type
			}
			if ptr {
				fn.symbol = pkg + ".(*" + id.Name + ")." + fd.Name.Name
			} else {
				fn.symbol = pkg + "." + id.Name + "." + fd.Name.Name
				fn.alt = pkg + ".(*" + id.Name + ")." + fd.Name.Name
			}
		}
		m.funcs = append(m.funcs, fn)
		m.declared[fn.symbol] = true
	}
}

func (m *moduleSource) addTests(f *ast.File) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || fd.Body == nil || !(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
			continue
		}
		m.tests[fd.Name.Name] = append(m.tests[fd.Name.Name], identifiers(fd.Body))
	}
}

// identifiers lists the names mentioned under n.
func identifiers(n ast.Node) map[string]bool {
	ids := map[string]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			ids[id.Name] = true
		}
		return true
	})
	return ids
}

// exportedNames lists the exported top-level names a file declares.
func exportedNames(f *ast.File) []string {
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// markFacadeUses records every rad.X selector in f, under whatever name f
// imports package rad as.
func markFacadeUses(f *ast.File, uses map[string]bool) {
	local := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"rad"` {
			local = "rad"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
				uses[sel.Sel.Name] = true
			}
		}
		return true
	})
}
