package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// pinnedVersion and pinnedGoldens tie ResultsVersion to the numbers it
// names: the digest of every golden JSONL (internal/*/testdata/*.jsonl)
// and of the logic-table checksums pinned by TestTableChecksumGolden.
const (
	pinnedVersion = 1
	pinnedGoldens = "4b3338f3d1df35665427f13846407413147617ce1c812f85f01318cf173a2574"
)

// TestResultsVersionPinsGoldens fails when a golden file or a table
// checksum moves without a ResultsVersion bump, so a build whose numbers
// changed cannot serve a cached cell or resume a checkpoint of the old
// ones. After a deliberate move: bump ResultsVersion, then set
// pinnedVersion to it and pinnedGoldens to the digest this test reports.
func TestResultsVersionPinsGoldens(t *testing.T) {
	got := goldensDigest(t)
	switch {
	case ResultsVersion != pinnedVersion:
		t.Errorf("ResultsVersion %d, pinned %d: set pinnedVersion = %d and pinnedGoldens = %q",
			ResultsVersion, pinnedVersion, ResultsVersion, got)
	case got != pinnedGoldens:
		t.Errorf("goldens digest %s, pinned %s under results version %d: the goldens or table checksums moved, so bump ResultsVersion and re-pin",
			got, pinnedGoldens, pinnedVersion)
	}
}

// goldensDigest hashes the golden JSONL files, by path relative to
// internal/, then the 64-hex string literals of TestTableChecksumGolden.
func goldensDigest(t *testing.T) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "*", "testdata", "*.jsonl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden files: %v", err)
	}
	h := sha256.New()
	for _, f := range files { // Glob sorts
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel("..", f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	sums := tableChecksums(t)
	if len(sums) == 0 {
		t.Fatal("TestTableChecksumGolden pins no checksums")
	}
	for _, sum := range sums {
		fmt.Fprintf(h, "table %s\n", sum)
	}
	return hex.EncodeToString(h.Sum(nil))
}

var sha256Hex = regexp.MustCompile(`^[0-9a-f]{64}$`)

// tableChecksums returns the SHA-256 string literals in the body of
// internal/acasx's TestTableChecksumGolden, in source order.
func tableChecksums(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "acasx", "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "TestTableChecksumGolden" {
				continue
			}
			var sums []string
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil && sha256Hex.MatchString(s) {
						sums = append(sums, s)
					}
				}
				return true
			})
			return sums
		}
	}
	t.Fatal("TestTableChecksumGolden not found in internal/acasx")
	return nil
}
