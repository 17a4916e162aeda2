package rad_test

// The documents show commands to run. A flag a command does not define
// makes the command exit before it runs, so every `radX -flag` a document
// shows must name a command under cmd/ and a flag that command's FlagSet
// defines. ROADMAP.md and CHANGES.md are not read: they record flags that
// were removed and flags that are planned.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// documentedFiles are the documents whose command lines are checked.
var documentedFiles = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
	".github/workflows/ci.yml",
}

// commandFlags returns, for each command under cmd/, the names of the flags
// its source defines through a flag.NewFlagSet.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	// nameArg is the position of the flag's name in each FlagSet method
	// that defines a flag.
	nameArg := map[string]int{
		"String": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "Float64": 0,
		"Bool": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
		"StringVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
		"Float64Var": 1, "BoolVar": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
	}
	out := make(map[string]map[string]bool)
	for _, dir := range dirs {
		// The flag package adds -h and -help to every FlagSet.
		flags := map[string]bool{"h": true, "help": true}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			// The names bound to a flag.NewFlagSet, then the flags defined
			// through them.
			sets := make(map[string]bool)
			ast.Inspect(f, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
					for i, rhs := range as.Rhs {
						if id, ok := as.Lhs[i].(*ast.Ident); ok && isCall(rhs, "flag", "NewFlagSet") {
							sets[id.Name] = true
						}
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, ok := sel.X.(*ast.Ident)
				i, defines := nameArg[sel.Sel.Name]
				if !ok || !sets[recv.Name] || !defines || i >= len(call.Args) {
					return true
				}
				lit, ok := call.Args[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Errorf("%s: %s.%s names its flag with a non-literal", path, recv.Name, sel.Sel.Name)
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				flags[name] = true
				return true
			})
		}
		out[filepath.Base(dir)] = flags
	}
	return out
}

// isCall reports whether e calls pkg.fn.
func isCall(e ast.Expr, pkg, fn string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

var (
	// invocation matches a command word, with any path before it, followed
	// by whitespace: ./radgen, /tmp/vfy/radquery, cmd/radbench, radwatch.
	invocation = regexp.MustCompile(`(?:^|[\s` + "`" + `(])([\w./$-]*/)?(rad[a-z]+)[ \t]`)
	// goTool matches a go subcommand whose own flags follow a package path.
	goTool = regexp.MustCompile(`\bgo\s+(?:test|build|vet|list|install)\b`)
)

// documentedFlags returns, for each command line of a document, the
// command and the flags it passes. A command's flags are read up to a
// shell separator (&&, |, ;, >), a backtick, the end of the line, or a
// word that is neither a flag nor the value after one, as in prose that
// names a command; a package path after `go test` or `go build` names no
// invocation.
func documentedFlags(line string) (cmds []string, flags [][]string) {
	for _, m := range invocation.FindAllStringSubmatchIndex(line, -1) {
		cmd := line[m[4]:m[5]]
		if m[2] >= 0 && goTool.MatchString(segmentBefore(line[:m[2]])) {
			continue
		}
		rest := line[m[5]:]
		if cut := strings.IndexAny(rest, "|;>`"); cut >= 0 {
			rest = rest[:cut]
		}
		if cut := strings.Index(rest, "&&"); cut >= 0 {
			rest = rest[:cut]
		}
		var fs []string
		afterFlag := false
		for _, tok := range strings.Fields(rest) {
			name := strings.TrimLeft(tok, "-")
			if dashes := len(tok) - len(name); dashes == 0 || dashes > 2 || name == "" ||
				!('a' <= name[0] && name[0] <= 'z' || 'A' <= name[0] && name[0] <= 'Z') {
				if !afterFlag {
					break
				}
				afterFlag = false
				continue
			}
			afterFlag = true
			if eq := strings.IndexByte(name, '='); eq >= 0 {
				name = name[:eq]
			}
			fs = append(fs, name)
		}
		if len(fs) > 0 {
			cmds = append(cmds, cmd)
			flags = append(flags, fs)
		}
	}
	return cmds, flags
}

// segmentBefore returns the shell command the text before an invocation
// belongs to: what follows its last separator.
func segmentBefore(s string) string {
	for _, sep := range []string{"&&", "|", ";", "`", "("} {
		if i := strings.LastIndex(s, sep); i >= 0 {
			s = s[i+len(sep):]
		}
	}
	return s
}

// TestDocsNameRealFlags fails on a command line in a document that names a
// command cmd/ does not hold, or a flag that command does not define.
func TestDocsNameRealFlags(t *testing.T) {
	known := commandFlags(t)
	if len(known) == 0 {
		t.Fatal("no commands under cmd/")
	}
	checked := 0
	for _, doc := range documentedFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(b), "\n")
		for i := 0; i < len(lines); i++ {
			n, line := i+1, lines[i]
			// A shell line continued with a backslash is one command line.
			for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
				i++
				line = line[:len(line)-1] + " " + lines[i]
			}
			cmds, flags := documentedFlags(line)
			for j, cmd := range cmds {
				defined, ok := known[cmd]
				if !ok {
					t.Errorf("%s:%d: %s is not a command under cmd/", doc, n, cmd)
					continue
				}
				for _, flag := range flags[j] {
					checked++
					if !defined[flag] {
						t.Errorf("%s:%d: %s defines no -%s", doc, n, cmd, flag)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no documented command line names a flag")
	}
}

// TestDocumentedFlagsParsing pins how a document line is read.
func TestDocumentedFlagsParsing(t *testing.T) {
	for _, tc := range []struct {
		line  string
		cmds  string
		flags string
	}{
		{"./radgen -seed 11 -scale 1.0 -out w1", "radgen", "seed scale out"},
		{"| Fig. 4 | `cmd/radbench -only fig4` | x |", "radbench", "only"},
		{"radquery -store s -mode compact && radquery -store s", "radquery radquery", "store mode|store"},
		{"./radwatch -addr a > watch.txt &", "radwatch", "addr"},
		{"go test -race ./cmd/radgen -run X", "", ""},
		{"kill -INT %1   # radtrace -seed=3 output", "radtrace", "seed"},
		{"radtrace's -presses", "", ""},
		{"radmiddlebox + radtrace, radwatch + the -stream layer", "", ""},
		{"via radquery -mode compact/-explain, the -stream layer", "radquery", "mode"},
		{"./radmiddlebox -fleet -tenants 16 -power=false &", "radmiddlebox", "fleet tenants power"},
		{"rad_fleet_tenants -x", "", ""},
	} {
		cmds, flags := documentedFlags(tc.line)
		var fs []string
		for _, f := range flags {
			fs = append(fs, strings.Join(f, " "))
		}
		if got := strings.Join(cmds, " "); got != tc.cmds || strings.Join(fs, "|") != tc.flags {
			t.Errorf("%q: commands %q flags %q, want %q and %q", tc.line, got, strings.Join(fs, "|"), tc.cmds, tc.flags)
		}
	}
}
