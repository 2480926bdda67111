package spbtree

// Documentation lints, run as ordinary tests so CI's `go test ./...` enforces
// them without external tooling:
//
//   - TestPackageDocs: every package in the module has a package doc comment.
//   - TestExportedDocs: every exported top-level symbol of the public root
//     package is documented.
//   - TestMarkdownLinks: every relative link in the repo's markdown files
//     points at a file or directory that exists.
//
//   - TestReadmeArchitectureTable: README's Architecture table names every
//     directory under internal/ and none that does not exist.
//
// Two repository-hygiene lints ride along: TestNoTrackedBinaries (no build
// output is committed) and TestWorkflowRunPatterns (every test CI names
// exists).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// modulePackages walks the repo and returns one representative non-test Go
// file per package directory.
func modulePackages(t *testing.T) map[string][]string {
	t.Helper()
	pkgs := make(map[string][]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		pkgs[dir] = append(pkgs[dir], path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestPackageDocs fails for any package directory whose files all lack a
// package doc comment.
func TestPackageDocs(t *testing.T) {
	for dir, files := range modulePackages(t) {
		documented := false
		fset := token.NewFileSet()
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("package %s has no package doc comment in any file", dir)
		}
	}
}

// TestExportedDocs fails for any exported top-level declaration without a
// doc comment — in the root package (the public API) and in the packages
// whose exported surface other layers program against (the forest, the
// cluster layer, the HTTP server).
func TestExportedDocs(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"internal/forest", "internal/cluster", "internal/server", "internal/retry"} {
		extra, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, extra...)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					t.Errorf("%s: exported func %s has no doc comment",
						fset.Position(d.Pos()), d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE && d.Tok != token.VAR && d.Tok != token.CONST {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
							t.Errorf("%s: exported type %s has no doc comment",
								fset.Position(s.Pos()), s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								t.Errorf("%s: exported %s %s has no doc comment",
									fset.Position(name.Pos()), d.Tok, name.Name)
							}
						}
					}
				}
			}
		}
	}
}

// mdLink matches inline markdown links and images; the first group is the
// target. Reference-style links and autolinks are out of scope.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// stripCode removes fenced code blocks and inline code spans, where
// bracket-paren sequences are code (slice indexing, calls), not links.
func stripCode(s string) string {
	var b strings.Builder
	inFence := false
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || strings.HasPrefix(line, "    ") || strings.HasPrefix(line, "\t") {
			continue
		}
		// Drop inline `code` spans.
		for {
			i := strings.IndexByte(line, '`')
			if i < 0 {
				break
			}
			j := strings.IndexByte(line[i+1:], '`')
			if j < 0 {
				break
			}
			line = line[:i] + line[i+1+j+1:]
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMarkdownLinks checks that every relative link target in the repo's
// markdown files exists on disk. External (scheme://) and pure-anchor links
// are skipped; anchors on relative links are stripped before the check.
func TestMarkdownLinks(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found")
	}
	for _, file := range mdFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(stripCode(string(data)), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: link target %q does not exist (resolved %s)", file, m[1], resolved)
			}
		}
	}
}

// designSection matches DESIGN.md's numbered section headings ("## 12. ..."
// and "### 12.4 ..."), capturing the section number.
var designSection = regexp.MustCompile(`(?m)^#{2,3} (\d+[a-z]?(?:\.\d+)?)[. ]`)

// designRef matches citations of DESIGN.md sections anywhere in the repo
// ("DESIGN.md §12.4", possibly wrapped across a line).
var designRef = regexp.MustCompile(`DESIGN\.md[\s(]+§(\d+[a-z]?(?:\.\d+)?)`)

// TestDesignSectionRefs verifies that every "DESIGN.md §N" citation — in Go
// doc comments and in the other markdown files — names a section that
// actually exists in DESIGN.md, so code comments can't drift as the design
// doc grows.
func TestDesignSectionRefs(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string]bool)
	for _, m := range designSection.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("no numbered sections found in DESIGN.md")
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range designRef.FindAllStringSubmatch(string(data), -1) {
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which does not exist", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOperationsRunbook keeps OPERATIONS.md an actual runbook: the required
// operational topics are present, and every `spbcluster <sub>` invocation it
// shows names a real subcommand.
func TestOperationsRunbook(t *testing.T) {
	data, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, topic := range []string{
		"3-node cluster", "/debug/vars", "rebalanc", "Crash recovery",
		"placement.json", "AsNodeErrors",
	} {
		if !strings.Contains(doc, topic) {
			t.Errorf("OPERATIONS.md no longer covers %q", topic)
		}
	}
	sub := regexp.MustCompile(`spbcluster\s+([a-z]+)\b`)
	known := map[string]bool{"init": true, "node": true, "rebalance": true}
	for _, m := range sub.FindAllStringSubmatch(doc, -1) {
		if !known[m[1]] {
			t.Errorf("OPERATIONS.md shows `spbcluster %s`, not a real subcommand", m[1])
		}
	}
}

// TestNoTrackedBinaries keeps build output out of the repository: no tracked
// file is an ELF executable or larger than 1 MB. It reads the index through
// git, so it is skipped in a checkout without .git (an exported tarball).
func TestNoTrackedBinaries(t *testing.T) {
	if _, err := os.Stat(".git"); err != nil {
		t.Skip("not a git checkout")
	}
	out, err := exec.Command("git", "ls-files", "-z").Output()
	if err != nil {
		t.Skipf("git ls-files: %v", err)
	}
	for _, name := range strings.Split(strings.TrimRight(string(out), "\x00"), "\x00") {
		f, err := os.Open(name)
		if err != nil {
			continue // tracked but removed from the working tree
		}
		st, err := f.Stat()
		var magic [4]byte
		n, _ := f.Read(magic[:])
		f.Close()
		if err != nil || st.IsDir() {
			continue
		}
		if st.Size() > 1<<20 {
			t.Errorf("%s is tracked and %d bytes; files over 1 MB do not belong in the repository", name, st.Size())
		}
		if n == 4 && string(magic[:]) == "\x7fELF" {
			t.Errorf("%s is a tracked ELF binary; build it, do not commit it (see .gitignore)", name)
		}
	}
}

// readmeInternalPkg matches an `internal/<name>` in a README table cell.
var readmeInternalPkg = regexp.MustCompile("`internal/(\\w+)`")

// TestReadmeArchitectureTable keeps README's Architecture table in step with
// the tree: every directory under internal/ has a row naming it, and every
// `internal/...` a row names exists — so deleting, adding or renaming a
// package cannot leave the table stale.
func TestReadmeArchitectureTable(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "\n## Architecture\n")
	if !ok {
		t.Fatal("README.md has no Architecture section")
	}
	section, _, _ := strings.Cut(rest, "\n## ")
	named := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(line, "|")
		for _, m := range readmeInternalPkg.FindAllStringSubmatch(cells[1], -1) {
			named[m[1]] = true
		}
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		if !named[d.Name()] {
			t.Errorf("README.md: Architecture table has no row for internal/%s", d.Name())
		}
		delete(named, d.Name())
	}
	for name := range named {
		t.Errorf("README.md: Architecture table names internal/%s, which does not exist", name)
	}
}

// workflowRun matches the -run argument of a `go test` line in a workflow.
var workflowRun = regexp.MustCompile(`-run '([^']+)'`)

// TestWorkflowRunPatterns checks that every alternative of every `-run`
// pattern in the CI workflow matches at least one test function: `go test
// -run` with a pattern that matches nothing passes silently, so a renamed
// test would otherwise drop out of its CI step unnoticed.
func TestWorkflowRunPatterns(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Skipf("no workflow to check: %v", err)
	}
	var tests []string
	testFunc := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			tests = append(tests, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, m := range workflowRun.FindAllStringSubmatch(string(data), -1) {
		if m[1] == "^$" {
			continue // "run no tests": the benchmark and fuzz steps
		}
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: -run alternative %q does not compile: %v", alt, err)
				continue
			}
			checked++
			matched := false
			for _, name := range tests {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("ci.yml: -run alternative %q matches no test function", alt)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run patterns in ci.yml; the matcher is out of date")
	}
}
