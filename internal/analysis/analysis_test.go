package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// want is one `// want "regexp"` expectation parsed from a fixture file.
// Several expectations may share a line (multiple quoted regexps after one
// `// want`), each consuming one diagnostic.
type want struct {
	file string // base filename
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// parseWants scans every comment in the fixture for `// want` markers. The
// marker may be a standalone trailing comment or embedded in a directive
// comment's reason text; either way everything after `// want` is a sequence
// of quoted regexps.
func parseWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want")
				if i < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(c.Text[i+len("// want"):])
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want expectation %q: %v", pos.Filename, pos.Line, rest, err)
					}
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: unquoting %q: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: compiling want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
						raw:  pat,
					})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no // want expectations", pkg.Path)
	}
	return wants
}

// checkFixture matches diagnostics against expectations one-to-one by
// file:line and regexp.
func checkFixture(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

func TestMapOrderFixture(t *testing.T) {
	pkg := loadFixture(t, "maporder")
	checkFixture(t, pkg, Run([]*Package{pkg}, []*Analyzer{MapOrder("maporder")}))
}

// The default analyzer only polices the ordering-sensitive packages; the
// fixture package is not one of them.
func TestMapOrderScopedToSensitivePackages(t *testing.T) {
	pkg := loadFixture(t, "maporder")
	if diags := Run([]*Package{pkg}, []*Analyzer{MapOrder()}); len(diags) != 0 {
		t.Errorf("default maporder scoping should skip fixture package, got %d diagnostics: %v", len(diags), diags)
	}
}

func TestRawRandFixture(t *testing.T) {
	pkg := loadFixture(t, "rawrand")
	checkFixture(t, pkg, Run([]*Package{pkg}, []*Analyzer{RawRand()}))
}

// Allow-listing the fixture package itself silences everything, mirroring how
// internal/rng is exempt in the real module.
func TestRawRandAllowlist(t *testing.T) {
	pkg := loadFixture(t, "rawrand")
	if diags := Run([]*Package{pkg}, []*Analyzer{RawRand("rawrand")}); len(diags) != 0 {
		t.Errorf("allow-listed package should produce no diagnostics, got %d: %v", len(diags), diags)
	}
}

func TestWallTimeFixture(t *testing.T) {
	pkg := loadFixture(t, "walltime")
	checkFixture(t, pkg, Run([]*Package{pkg}, []*Analyzer{WallTime()}))
}

// The message names the allowlist the analyzer was built with.
func TestWallTimeMessageNamesItsAllowlist(t *testing.T) {
	pkg := loadFixture(t, "walltime")
	diags := Run([]*Package{pkg}, []*Analyzer{WallTime("internal/elsewhere")})
	if len(diags) == 0 {
		t.Fatal("no diagnostics on the walltime fixture")
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "(allow-listed: [internal/elsewhere])") {
			t.Errorf("message does not name the analyzer's allowlist: %s", d)
		}
	}
}

func TestChanOrderFixture(t *testing.T) {
	pkg := loadFixture(t, "chanorder")
	checkFixture(t, pkg, Run([]*Package{pkg}, []*Analyzer{ChanOrder()}))
}

func TestFloatWidenFixture(t *testing.T) {
	pkg := loadFixture(t, "floatwiden")
	checkFixture(t, pkg, Run([]*Package{pkg}, []*Analyzer{FloatWiden("floatwiden")}))
}

func TestPoolBalanceFixture(t *testing.T) {
	pkg := loadFixture(t, "poolbalance")
	checkFixture(t, pkg, Run([]*Package{pkg}, []*Analyzer{PoolBalance()}))
}

func TestBoundedDecodeFixture(t *testing.T) {
	pkg := loadFixture(t, "boundeddecode")
	checkFixture(t, pkg, Run([]*Package{pkg}, []*Analyzer{BoundedDecode("boundeddecode")}))
}

// nonDirective drops DirectiveAnalyzer reports: when a scoped analyzer skips
// the fixture package, its suppression directive is legitimately dead.
func nonDirective(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Analyzer != DirectiveAnalyzer {
			out = append(out, d)
		}
	}
	return out
}

// The default boundeddecode scoping covers only the decoder packages.
func TestBoundedDecodeScoped(t *testing.T) {
	pkg := loadFixture(t, "boundeddecode")
	if diags := nonDirective(Run([]*Package{pkg}, []*Analyzer{BoundedDecode()})); len(diags) != 0 {
		t.Errorf("default boundeddecode scoping should skip fixture package, got %d diagnostics: %v", len(diags), diags)
	}
}

func TestDeadlineIOFixture(t *testing.T) {
	pkg := loadFixture(t, "deadlineio")
	checkFixture(t, pkg, Run([]*Package{pkg}, []*Analyzer{DeadlineIO("deadlineio")}))
}

// The default deadlineio scoping covers only the networked packages.
func TestDeadlineIOScoped(t *testing.T) {
	pkg := loadFixture(t, "deadlineio")
	if diags := nonDirective(Run([]*Package{pkg}, []*Analyzer{DeadlineIO()})); len(diags) != 0 {
		t.Errorf("default deadlineio scoping should skip fixture package, got %d diagnostics: %v", len(diags), diags)
	}
}

func TestSpanBalanceFixture(t *testing.T) {
	pkg := loadFixture(t, "spanbalance")
	checkFixture(t, pkg, Run([]*Package{pkg}, []*Analyzer{SpanBalance("spanbalance")}))
}

// The default spanbalance scoping covers only the instrumented packages.
func TestSpanBalanceScoped(t *testing.T) {
	pkg := loadFixture(t, "spanbalance")
	if diags := nonDirective(Run([]*Package{pkg}, []*Analyzer{SpanBalance()})); len(diags) != 0 {
		t.Errorf("default spanbalance scoping should skip fixture package, got %d diagnostics: %v", len(diags), diags)
	}
}

func TestHotAllocFixture(t *testing.T) {
	pkg := loadFixture(t, "hotalloc")
	checkFixture(t, pkg, Run([]*Package{pkg}, []*Analyzer{HotAlloc()}))
}

// contractAnalyzerCases pairs each second-generation analyzer with a minimal
// violating source; the analyzer is scoped (where scoping exists) to the
// generated package name "fix".
var contractAnalyzerCases = []struct {
	name string
	mk   func() *Analyzer
	src  string // %s is replaced by the ignore directive line
}{
	{"poolbalance", func() *Analyzer { return PoolBalance() }, `package fix

import "repro/internal/pool"

func f(n int) {
%s
	buf := pool.Get(n)
	_ = buf
}
`},
	{"boundeddecode", func() *Analyzer { return BoundedDecode("fix") }, `package fix

type r struct{}

func (r) Int() (int, error) { return 0, nil }

func f(x r) []int {
	n, _ := x.Int()
%s
	return make([]int, n)
}
`},
	{"deadlineio", func() *Analyzer { return DeadlineIO("fix") }, `package fix

import "net"

func f(ln net.Listener) (net.Conn, error) {
%s
	return ln.Accept()
}
`},
	{"spanbalance", func() *Analyzer { return SpanBalance("fix") }, `package fix

type tr struct{}

func (tr) Now() int64  { return 0 }
func (tr) Span(int64)  {}

func f(t tr) {
%s
	s := t.Now()
	_ = s
}
`},
	{"hotalloc", func() *Analyzer { return HotAlloc() }, `package fix

//easyscale:hotpath
func f(n int) []int {
%s
	return make([]int, n)
}
`},
}

// loadSrc loads src as package fix in a module of its own that requires
// this one, so the source may import the repository's packages.
func loadSrc(t *testing.T, src string) *Package {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gomod := "module fix\n\ngo 1.22\n\nrequire repro v0.0.0\n\nreplace repro => " + root + "\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading generated package: %v", err)
	}
	return pkg
}

// TestContractAnalyzersSuppressible asserts each new analyzer fires on its
// minimal violation, is silenced by a reasoned //detlint:ignore, and that
// the reasonless variant of the same directive is itself diagnosed while
// suppressing nothing.
func TestContractAnalyzersSuppressible(t *testing.T) {
	for _, tc := range contractAnalyzerCases {
		t.Run(tc.name, func(t *testing.T) {
			bare := loadSrc(t, strings.ReplaceAll(tc.src, "%s\n", ""))
			diags := Run([]*Package{bare}, []*Analyzer{tc.mk()})
			if len(diags) != 1 || diags[0].Analyzer != tc.name {
				t.Fatalf("violation should yield exactly one %s diagnostic, got %v", tc.name, diags)
			}

			reasoned := loadSrc(t, strings.ReplaceAll(tc.src, "%s",
				"\t//detlint:ignore "+tc.name+" -- test: sanctioned in this harness"))
			if diags := Run([]*Package{reasoned}, []*Analyzer{tc.mk()}); len(diags) != 0 {
				t.Errorf("reasoned directive should suppress the %s diagnostic, got %v", tc.name, diags)
			}

			reasonless := loadSrc(t, strings.ReplaceAll(tc.src, "%s",
				"\t//detlint:ignore "+tc.name))
			diags = Run([]*Package{reasonless}, []*Analyzer{tc.mk()})
			var sawViolation, sawDirective bool
			for _, d := range diags {
				if d.Analyzer == tc.name {
					sawViolation = true
				}
				if d.Analyzer == DirectiveAnalyzer && strings.Contains(d.Message, "missing its mandatory reason") {
					sawDirective = true
				}
			}
			if !sawViolation {
				t.Errorf("reasonless directive must suppress nothing; %s diagnostic vanished: %v", tc.name, diags)
			}
			if !sawDirective {
				t.Errorf("reasonless directive must be diagnosed under %q: %v", DirectiveAnalyzer, diags)
			}
		})
	}
}

func TestAudit(t *testing.T) {
	pkg := loadFixture(t, "poolbalance")
	sites := Audit([]*Package{pkg})
	if len(sites) != 1 {
		t.Fatalf("expected 1 ignore site in poolbalance fixture, got %d: %v", len(sites), sites)
	}
	s := sites[0]
	if len(s.Analyzers) != 1 || s.Analyzers[0] != "poolbalance" {
		t.Errorf("site analyzers = %v, want [poolbalance]", s.Analyzers)
	}
	if !strings.Contains(s.Reason, "sanctioned handoff") {
		t.Errorf("site reason = %q, want the fixture's citation", s.Reason)
	}
	if s.Malformed != "" {
		t.Errorf("fixture directive reported malformed: %q", s.Malformed)
	}
}

func TestDirectiveFixture(t *testing.T) {
	pkg := loadFixture(t, "directive")
	diags := Run([]*Package{pkg}, DefaultAnalyzers())
	checkFixture(t, pkg, diags)

	// The spec's focused guarantee: a directive without a reason is itself a
	// diagnostic, reported under the unsuppressible pseudo-analyzer.
	found := false
	for _, d := range diags {
		if d.Analyzer == DirectiveAnalyzer && strings.Contains(d.Message, "missing its mandatory reason") {
			found = true
		}
	}
	if !found {
		t.Errorf("reasonless //detlint:ignore did not produce a %q diagnostic; got: %v", DirectiveAnalyzer, diags)
	}
}

// repo is the repository's module, loaded once per test binary.
var repo struct {
	once sync.Once
	mod  *Module
	err  error
}

// repoModule returns the repository's module; a load error, type errors
// included, fails the test.
func repoModule(t *testing.T) *Module {
	t.Helper()
	repo.once.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			repo.err = err
			return
		}
		repo.mod, repo.err = LoadModule(root)
	})
	if repo.err != nil {
		t.Fatalf("loading module: %v", repo.err)
	}
	return repo.mod
}

// TestRunOnThisModule is the lint gate in test form: the repository itself
// must be clean under the full default suite.
func TestRunOnThisModule(t *testing.T) {
	diags := Run(repoModule(t).Packages(), DefaultAnalyzers())
	for _, d := range diags {
		t.Errorf("unsuppressed diagnostic: %s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d unsuppressed diagnostics; annotate with //detlint:ignore <analyzer> -- <reason> or fix", len(diags))
	}
}

// The repository and every fixture load: the loader fails on the first type
// error, so loading is the assertion that none of them has one.
func TestEverythingTypeChecks(t *testing.T) {
	repoModule(t)
	fixtures, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fixtures {
		loadFixture(t, f.Name())
	}
}

// An import go list cannot resolve fails the load with go list's own
// message; nothing degrades to an untyped stub.
func TestLoadFailsWhenGoListFails(t *testing.T) {
	dir := t.TempDir()
	src := "package fix\n\nimport \"nosuchpkg/x\"\n\nvar _ = x.Y\n"
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), "go list") || !strings.Contains(err.Error(), "nosuchpkg/x") {
		t.Fatalf("LoadDir = %v, want a go list error naming nosuchpkg/x", err)
	}
}

// TestAuditSitesDocumented keeps DESIGN.md's sanctioned-site lists in step
// with the code: every file holding a //detlint:ignore site is named there.
func TestAuditSitesDocumented(t *testing.T) {
	mod := repoModule(t)
	design, err := os.ReadFile(filepath.Join(mod.Root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Audit(mod.Packages()) {
		rel, err := filepath.Rel(mod.Root, s.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(design), "`"+filepath.ToSlash(rel)+"`") {
			t.Errorf("%s:%d: ignore site is not named in DESIGN.md's sanctioned-site lists", rel, s.Pos.Line)
		}
	}
}

// TestDiagnosticString pins the file:line:col rendering detlint prints.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "maporder", Message: "msg"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got, want := d.String(), "x.go:3:7: maporder: msg"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
