package hipac_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignIndexNamesLiveTargets holds DESIGN.md §4 to the code: every
// Test*/Benchmark*/Fuzz* its "Bench target" column names must be
// declared in some _test.go file of the checkout, and every repository
// path it names (`examples/saa`, `benchmark/`) must exist.
func TestDesignIndexNamesLiveTargets(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(design), "\n## 4. Per-experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## 4. Per-experiment index\" section")
	}
	index, _, _ = strings.Cut(index, "\n## ")

	declared := map[string]bool{}
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	if err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, build caches
		}
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}

	quoted := regexp.MustCompile("`([^`]+)`")
	testName := regexp.MustCompile(`^(Test|Benchmark|Fuzz)\w*$`)
	repoPath := regexp.MustCompile(`^(cmd|examples|benchmark|internal)/`)
	named := 0
	for _, line := range strings.Split(index, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 8 || strings.HasPrefix(cells[1], "--") || strings.TrimSpace(cells[1]) == "Id" {
			continue
		}
		id := strings.TrimSpace(cells[1])
		for _, m := range quoted.FindAllStringSubmatch(cells[len(cells)-2], -1) {
			target := strings.Fields(m[1])[0]
			switch {
			case testName.MatchString(target):
				named++
				if !declared[target] {
					t.Errorf("%s: bench target %s is declared in no _test.go file", id, target)
				}
			case repoPath.MatchString(target):
				if _, err := os.Stat(target); err != nil {
					t.Errorf("%s: bench target %s: %v", id, m[1], err)
				}
			}
		}
	}
	if named < 40 {
		t.Fatalf("parsed only %d test and benchmark names from the index; has the table moved?", named)
	}
}
