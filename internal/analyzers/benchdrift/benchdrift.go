// Package benchdrift keeps the committed benchmark records and the pages
// that cite them consistent.
//
// The BENCH_*.json files at the module root are the repo's performance
// trajectory (docs/PERFORMANCE.md defines the schema); README, DESIGN.md,
// and the docs/ pages quote their numbers. Two ways that record rots: a
// BENCH file drifts from the schema (a misspelled key silently drops a
// metric from review), or documentation cites a record that was renamed or
// never committed. Both are reported:
//
//   - every BENCH_*.json must conform to the schema — the required
//     provenance fields (package, date, goos, goarch, cpu, command, notes),
//     a non-empty benchmarks array whose entries carry name, iterations,
//     and ns_per_op with only the known optional metrics besides, and an
//     optional before array of the same entry shape (minus iterations,
//     which a superseded run need not retain);
//   - every `BENCH_*.json` reference in README.md, DESIGN.md or a docs/
//     page must name a committed file, and every committed BENCH file must
//     be cited by at least one of those pages (an uncited record is dead
//     weight; delete it or document it).
//
// Only those pages are scanned. The other root pages, such as the change
// log and the roadmap, narrate work, including records that do not exist yet
// (the roadmap's open items name records that are planned but not
// committed). A mention in one of them neither has to resolve nor counts as
// the citation that keeps a committed record from being orphaned.
//
// The check anchors on the root command package (cmd/carbonexplorer), runs
// once per lint invocation, and positions findings inside the JSON and
// markdown files themselves. JSON takes no comments, so suppressing a
// benchdrift finding means fixing the file — or carrying it in the
// -baseline, which exists for exactly this class of non-Go finding.
package benchdrift

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"carbonexplorer/internal/analyzers/analysis"
)

// Analyzer is the benchdrift check.
var Analyzer = &analysis.Analyzer{
	Name: "benchdrift",
	Doc:  "keep BENCH_*.json records schema-conformant and doc benchmark citations resolvable",
	Run:  run,
}

// anchorPkg is the package whose lint pass carries the repo-wide check: the
// root command, present in every repo-wide invocation.
const anchorPkg = "carbonexplorer/cmd/carbonexplorer"

// requiredTop are the mandatory top-level provenance fields.
var requiredTop = []string{"package", "date", "goos", "goarch", "cpu", "command", "notes"}

// optionalEntry are the metric fields an entry may carry beyond the
// required name/iterations/ns_per_op. "evals" is the design-evaluation
// count an adaptive-vs-dense benchmark reports via b.ReportMetric.
var optionalEntry = map[string]bool{
	"bytes_per_op": true, "allocs_per_op": true, "designs_per_sec": true,
	"evals": true,
}

// dateRE pins the date field to YYYY-MM-DD.
var dateRE = regexp.MustCompile(`^\d{4}-\d{2}-\d{2}$`)

// refRE finds BENCH file citations in markdown.
var refRE = regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json`)

// citingPages are the glob patterns, relative to the module root, of the
// pages whose BENCH mentions are citations. Mentions anywhere else need not
// resolve, and they do not rescue an orphaned record.
var citingPages = []string{"README.md", "DESIGN.md", filepath.Join("docs", "*.md")}

func run(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Path() != anchorPkg || len(pass.Files) == 0 {
		return nil, nil
	}
	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	root, ok := findModuleRoot(dir)
	if !ok {
		return nil, nil
	}
	for _, d := range Check(pass.Fset, root) {
		pass.Report(d)
	}
	return nil, nil
}

// findModuleRoot walks up from dir to the directory holding go.mod.
func findModuleRoot(dir string) (string, bool) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, true
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", false
		}
		dir = parent
	}
}

// Check audits the BENCH records and markdown citations under root. It is
// the whole analyzer behind the anchor-package plumbing, exported so
// fixture roots can be audited directly in tests.
func Check(fset *token.FileSet, root string) []analysis.Diagnostic {
	c := &checker{fset: fset, root: root}

	benchPaths, _ := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	sort.Strings(benchPaths)
	committed := map[string]bool{}
	for _, p := range benchPaths {
		committed[filepath.Base(p)] = true
		c.checkRecord(p)
	}

	cited := map[string]bool{}
	for _, p := range markdownPages(root) {
		c.checkPage(p, committed, cited)
	}
	for _, p := range benchPaths {
		if !cited[filepath.Base(p)] {
			c.reportf(p, nil, 0, "%s is cited by no root or docs/ markdown page; document the record or delete it", filepath.Base(p))
		}
	}
	return c.diags
}

// markdownPages lists the citation-bearing pages present under root.
func markdownPages(root string) []string {
	var pages []string
	for _, pattern := range citingPages {
		found, _ := filepath.Glob(filepath.Join(root, pattern))
		pages = append(pages, found...)
	}
	sort.Strings(pages)
	return pages
}

type checker struct {
	fset  *token.FileSet
	root  string
	diags []analysis.Diagnostic
	files map[string]*token.File
}

// reportf files a diagnostic at byte offset in the named non-Go file,
// registering the file with the FileSet on first use so positions render
// as file:line:col like every Go finding.
func (c *checker) reportf(path string, content []byte, offset int, format string, args ...any) {
	if c.files == nil {
		c.files = map[string]*token.File{}
	}
	tf := c.files[path]
	if tf == nil {
		if content == nil {
			content, _ = os.ReadFile(path)
		}
		tf = c.fset.AddFile(path, -1, len(content))
		tf.SetLinesForContent(content)
		c.files[path] = tf
	}
	c.diags = append(c.diags, analysis.Diagnostic{
		Pos:     tf.Pos(offset),
		Message: fmt.Sprintf(format, args...),
	})
}

// checkRecord validates one BENCH_*.json against the docs/PERFORMANCE.md
// schema.
func (c *checker) checkRecord(path string) {
	base := filepath.Base(path)
	content, err := os.ReadFile(path)
	if err != nil {
		c.reportf(path, []byte{}, 0, "%s: unreadable benchmark record: %v", base, err)
		return
	}
	var top map[string]any
	if err := json.Unmarshal(content, &top); err != nil {
		c.reportf(path, content, 0, "%s: not valid JSON: %v", base, err)
		return
	}
	bad := func(format string, args ...any) {
		c.reportf(path, content, keyOffset(content, ""), base+": "+fmt.Sprintf(format, args...))
	}
	for _, key := range requiredTop {
		s, ok := top[key].(string)
		if !ok || s == "" {
			bad("missing or empty required field %q", key)
		}
	}
	if date, ok := top["date"].(string); ok && date != "" && !dateRE.MatchString(date) {
		bad("field \"date\" is %q, want YYYY-MM-DD", date)
	}
	for key := range top {
		switch key {
		case "benchmarks", "before":
		default:
			if !containsString(requiredTop, key) {
				bad("unknown top-level field %q", key)
			}
		}
	}
	entries, ok := top["benchmarks"].([]any)
	if !ok || len(entries) == 0 {
		bad("field \"benchmarks\" must be a non-empty array")
	}
	c.checkEntries(path, content, base, "benchmarks", entries)
	if before, present := top["before"]; present {
		entries, ok := before.([]any)
		if !ok {
			bad("field \"before\" must be an array of benchmark entries")
			return
		}
		c.checkEntries(path, content, base, "before", entries)
	}
}

// checkEntries validates one benchmark-entry array. Current benchmarks
// require an iteration count; before entries may omit it — what survives
// of a superseded run is its per-op numbers, not its harness bookkeeping.
func (c *checker) checkEntries(path string, content []byte, base, field string, entries []any) {
	for i, raw := range entries {
		at := fmt.Sprintf("%s: %s[%d]", base, field, i)
		entry, ok := raw.(map[string]any)
		if !ok {
			c.reportf(path, content, 0, "%s: entry must be an object", at)
			continue
		}
		name, _ := entry["name"].(string)
		offset := 0
		if name != "" {
			offset = keyOffset(content, name)
		} else {
			c.reportf(path, content, 0, "%s: missing or empty required field \"name\"", at)
		}
		for _, key := range []string{"iterations", "ns_per_op"} {
			v, present := entry[key]
			if !present && key == "iterations" && field == "before" {
				continue
			}
			if n, ok := v.(float64); !ok || n <= 0 {
				c.reportf(path, content, offset, "%s: field %q must be a positive number", at, key)
			}
		}
		for key, v := range entry {
			switch key {
			case "name", "iterations", "ns_per_op":
			default:
				if !optionalEntry[key] {
					c.reportf(path, content, offset, "%s: unknown field %q (known metrics: bytes_per_op, allocs_per_op, designs_per_sec, evals)", at, key)
				} else if _, ok := v.(float64); !ok {
					c.reportf(path, content, offset, "%s: field %q must be a number", at, key)
				}
			}
		}
	}
}

// checkPage audits one markdown page's BENCH citations.
func (c *checker) checkPage(path string, committed, cited map[string]bool) {
	content, err := os.ReadFile(path)
	if err != nil {
		return
	}
	seen := map[string]bool{}
	for _, loc := range refRE.FindAllIndex(content, -1) {
		ref := string(content[loc[0]:loc[1]])
		cited[ref] = true
		if !committed[ref] && !seen[ref] {
			seen[ref] = true
			rel, _ := filepath.Rel(c.root, path)
			c.reportf(path, content, loc[0], "%s cites %s, which is not committed at the module root", rel, ref)
		}
	}
}

// keyOffset locates the first occurrence of needle in content (0 when
// absent), anchoring entry diagnostics near their benchmark name.
func keyOffset(content []byte, needle string) int {
	if needle == "" {
		return 0
	}
	if i := strings.Index(string(content), needle); i >= 0 {
		return i
	}
	return 0
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
