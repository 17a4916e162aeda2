package rad_test

// Every function declared outside a _test.go file must run in a binary the
// repository ships: the eight commands, the six examples and perfbench. The
// test builds them with inlining off, so a function missing from every
// symbol table was dropped by the linker, not inlined, and compares their
// symbols with the declarations go/parser finds. A function no binary links
// stays only in testedOnly, naming the test that watches shipped behaviour
// through it. The root package is a facade the binaries do not import, so it
// answers to a different rule: every exported rad.go name is referenced as
// rad.X by an example or a root rad_test file.
//
// A setting is a function's input that a symbol table cannot show, so a
// second test type-checks the same source: every exported field of a
// Config, Options, Policy, Profile or Resources struct must be set by the
// code of a binary, or named in testSeams with the test that sets it.

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
	"rad/internal/stream.(*Subscriber).Recv":        "TestOnlineCleanRunRaisesNoAlerts",
	"rad/internal/stream.(*Subscriber).TryRecv":     "TestPublishDeliversInOrder",
	"rad/internal/stream.(*Subscriber).take":        "TestPublishDeliversInOrder",
	"rad/internal/stream.(*ResilientTail).Stats":    "TestReconnectResilientTailResumesAcrossRestart",
	"rad/internal/store.(*MemStore).Runs":           "TestTraceDBQueryParityWithMemStore",
	"rad/internal/fleet.(*Router).Lookup":           "TestFleetRouterRouting",
	"rad/internal/obs.(*Histogram).Count":           "TestObsHistogramConcurrentObserveWhileRender",
	"rad/internal/experiments.Fig6Result.BlockMean": "TestFig6BlockStructure",

	// Readers of the exports the binaries write.
	"rad/internal/store.ReadCSV":   "TestGoldenExportFormats",
	"rad/internal/store.splitArgs": "TestGoldenExportFormats",
	"rad/internal/store.ReadJSONL": "TestGoldenExportFormats",

	// Clock and simulator controls, and the state the simulators keep.
	"rad/internal/simclock.(*Virtual).Advance":        "TestStatusPollingDuringMove",
	"rad/internal/power.(*Monitor).RecordQuiescent":   "TestMultipleSubscribersIndependent",
	"rad/internal/power.(*Monitor).Payload":           "TestSetPayloadClampsNegative",
	"rad/internal/power.(*Monitor).Pose":              "TestRecordMoveSamplesAt25Hz",
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
	// mentions (names repeat across packages), its own and those of every
	// helper function of its package's test files that it calls, directly
	// or through other helpers.
	tests map[string][]map[string]bool
	// facade lists rad.go's exported names; facadeUses the ones an example
	// or a root rad_test file references as rad.X.
	facade     []string
	facadeUses map[string]bool
	// fset and pkgs hold the parsed non-test files, keyed by import path.
	fset *token.FileSet
	pkgs map[string][]*ast.File
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
	fset := token.NewFileSet()
	var testFuncs []testFunc
	m := moduleSource{
		declared:   map[string]bool{},
		tests:      map[string][]map[string]bool{},
		facadeUses: map[string]bool{},
		fset:       fset,
		pkgs:       map[string][]*ast.File{},
	}
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
		if !isTest {
			pkg := "rad"
			if dir != "." {
				pkg += "/" + dir
			}
			m.pkgs[pkg] = append(m.pkgs[pkg], f)
		}
		switch {
		case isTest:
			testFuncs = appendTestFuncs(testFuncs, f, dir)
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
	m.indexTests(testFuncs)
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

// testFunc is a function of a _test.go file: a test or a helper.
type testFunc struct {
	dir, name string
	idents    map[string]bool
}

func appendTestFuncs(fns []testFunc, f *ast.File, dir string) []testFunc {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Body != nil {
			fns = append(fns, testFunc{dir, fd.Name.Name, identifiers(fd.Body)})
		}
	}
	return fns
}

// indexTests fills tests from the functions of every test file.
func (m *moduleSource) indexTests(fns []testFunc) {
	helpers := map[string]map[string]bool{} // dir/name → identifiers
	for _, f := range fns {
		helpers[f.dir+"/"+f.name] = f.idents
	}
	for _, f := range fns {
		if !strings.HasPrefix(f.name, "Test") && !strings.HasPrefix(f.name, "Fuzz") {
			continue
		}
		idents, seen := map[string]bool{}, map[string]bool{f.name: true}
		for queue := []map[string]bool{f.idents}; len(queue) > 0; queue = queue[1:] {
			for id := range queue[0] {
				idents[id] = true
				if h, ok := helpers[f.dir+"/"+id]; ok && !seen[id] {
					seen[id] = true
					queue = append(queue, h)
				}
			}
		}
		m.tests[f.name] = append(m.tests[f.name], idents)
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

// testSeams maps each setting that no binary sets to the test that sets it.
// The key is pkg.Type.Field; the named test, or a helper of its package's
// test files that it calls, must mention the field.
// Add an entry only where a test needs a value no binary runs and making
// the setting a constant would delete a paper mechanism or the only test of
// a shipped guarantee.
var testSeams = map[string]string{
	// Stores of many segments in kilobytes of records, not megabytes.
	"rad/internal/tracedb.Options.SegmentBytes": "TestCompactMergesSmallBlocks",
	// Reconnects in milliseconds, not seconds.
	"rad/internal/stream.ResilientConfig.BackoffBase": "TestReconnectChaosKillRestartExactlyOnce",
	"rad/internal/stream.ResilientConfig.BackoffMax":  "TestReconnectChaosKillRestartExactlyOnce",
	// Paper mechanisms no binary switches on: Fig. 2's serial layer and
	// §III's hybrid tracing modes.
	"rad/internal/procedure.VirtualLabConfig.SerialDevices": "TestSerialLabRunsFullProcedure",
	"rad/internal/tracer.Config.Modes":                      "TestHybridConfiguration",
	// An attack that fires on every command, and a speed tamper of ×4, the
	// factor that crosses the UR3e's 600 mm/s limit (the default ×3 lands
	// exactly on it).
	"rad/internal/attack.Config.Intensity": "TestInjectionAddsCommandsWithVictimLabels",
	"rad/internal/attack.Config.Factor":    "TestIntegrationSpeedAttackTripsEveryDefense",
	// The only test that tracing leaves a campaign's tenant digests
	// unchanged.
	"rad/internal/fleet.CampaignConfig.Spans": "TestFleetTracedCampaignDigests",
}

// settingSuffixes name the struct types whose exported fields are settings.
var settingSuffixes = []string{"Config", "Options", "Policy", "Profile", "Resources"}

func TestEveryOptionIsSet(t *testing.T) {
	src := parseModule(t)
	info := src.typeCheck(t)
	set := src.setFields(info)
	declared := map[string]bool{}
	for _, s := range src.settings(info) {
		declared[s.key] = true
		entry, listed := testSeams[s.key]
		switch {
		case set[s.field] && listed:
			t.Errorf("%s (%s) is set by a binary; delete its testSeams entry", s.key, s.pos)
		case !set[s.field] && !listed:
			t.Errorf("%s (%s) is set by no binary: make it a constant, set it in a binary, or list it in testSeams with the test that sets it", s.key, s.pos)
		case listed && len(src.tests[entry]) == 0:
			t.Errorf("testSeams[%s] names %s, which is no test", s.key, entry)
		case listed && !src.mentions(entry, s.field.Name()):
			t.Errorf("testSeams[%s] names %s, which does not set %s", s.key, entry, s.field.Name())
		}
	}
	for key := range testSeams {
		if !declared[key] {
			t.Errorf("testSeams lists %s, which is declared nowhere outside tests", key)
		}
	}
}

// mentions reports whether a test of that name mentions ident.
func (m moduleSource) mentions(test, ident string) bool {
	for _, idents := range m.tests[test] {
		if idents[ident] {
			return true
		}
	}
	return false
}

// typeCheck type-checks every non-test package of the module and of
// perfbench, taking the standard library from source.
func (m moduleSource) typeCheck(t *testing.T) *types.Info {
	t.Helper()
	imp := &moduleImporter{
		src:  m,
		std:  importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom),
		done: map[string]*types.Package{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	paths := make([]string, 0, len(m.pkgs))
	for path := range m.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	return imp.info
}

// moduleImporter type-checks the module's packages from the parsed files,
// once each, into one shared Info, and hands every other import to std.
type moduleImporter struct {
	src  moduleSource
	std  types.ImporterFrom
	done map[string]*types.Package
	info *types.Info
}

func (imp *moduleImporter) Import(path string) (*types.Package, error) {
	return imp.ImportFrom(path, "", 0)
}

func (imp *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := imp.done[path]; ok {
		return pkg, nil
	}
	files, ok := imp.src.pkgs[path]
	if !ok {
		return imp.std.ImportFrom(path, dir, mode)
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, imp.src.fset, files, imp.info)
	if err != nil {
		return nil, err
	}
	imp.done[path] = pkg
	return pkg, nil
}

// setting is one exported field of a settings struct.
type setting struct {
	key   string // pkg.Type.Field
	field *types.Var
	pos   string
}

// settings lists the exported fields of every exported, non-alias struct
// type whose name ends in one of settingSuffixes.
func (m moduleSource) settings(info *types.Info) []setting {
	var out []setting
	for path, files := range m.pkgs {
		for _, f := range files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok || ts.Assign.IsValid() || !ts.Name.IsExported() || !hasSettingSuffix(ts.Name.Name) {
						continue
					}
					for _, fd := range st.Fields.List {
						for _, name := range fieldIdents(fd) {
							if v, ok := info.Defs[name].(*types.Var); ok && name.IsExported() {
								out = append(out, setting{key: path + "." + ts.Name.Name + "." + name.Name,
									field: v, pos: m.fset.Position(name.Pos()).String()})
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func hasSettingSuffix(name string) bool {
	for _, s := range settingSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// fieldIdents returns the names a field declares; an embedded field's name
// is its type's.
func fieldIdents(fd *ast.Field) []*ast.Ident {
	if len(fd.Names) > 0 {
		return fd.Names
	}
	typ := fd.Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch typ := typ.(type) {
	case *ast.Ident:
		return []*ast.Ident{typ}
	case *ast.SelectorExpr:
		return []*ast.Ident{typ.Sel}
	}
	return nil
}

// setFields lists the fields that the non-test code of the binaries sets:
// a key of a composite literal, the operand of & (a flag binding), or the
// target of an assignment that no enclosing if guards by reading the same
// field (such an assignment fills a default or clamps a value). A write to
// x.A.B sets A as well as B. The root package is a facade no binary
// imports, so its code sets nothing.
func (m moduleSource) setFields(info *types.Info) map[*types.Var]bool {
	set := map[*types.Var]bool{}
	markChain := func(e ast.Expr) {
		for {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			s := info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			set[s.Obj().(*types.Var)] = true
			e = sel.X
		}
	}
	for path, files := range m.pkgs {
		if path == "rad" {
			continue
		}
		for _, f := range files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							set[v] = true
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markChain(n.X)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if !guarded(info, lhs, stack) {
							markChain(lhs)
						}
					}
				}
				stack = append(stack, n)
				return true
			})
		}
	}
	return set
}

// guarded reports whether lhs selects a field that the condition of an if
// enclosing the assignment reads.
func guarded(info *types.Info, lhs ast.Expr, stack []ast.Node) bool {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok || info.Selections[sel] == nil {
		return false
	}
	field := info.Selections[sel].Obj()
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		reads := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectorExpr); ok && info.Selections[s] != nil && info.Selections[s].Obj() == field {
				reads = true
			}
			return !reads
		})
		if reads {
			return true
		}
	}
	return false
}
