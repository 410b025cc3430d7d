package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// expectations reads the "// want <check>" markers from every fixture
// file in dir, returning "<base>:<line>:<check>" keys.
func expectations(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			check := strings.TrimSpace(line[idx+len("// want "):])
			out[fmt.Sprintf("%s:%d:%s", e.Name(), i+1, check)] = true
		}
	}
	return out
}

// checkFixture runs one analyzer over one fixture package and matches
// the findings against the // want markers.
func checkFixture(t *testing.T, pkg string, a *Analyzer) {
	t.Helper()
	checkFixtureAll(t, pkg, []*Analyzer{a})
}

// checkFixtureAll is checkFixture with a batch of analyzers, for
// checks (stalesupp) that only make sense alongside others.
func checkFixtureAll(t *testing.T, pkg string, analyzers []*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	want := expectations(t, dir)
	findings, err := Run("../..", []string{dir}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Check)] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: expected finding %s, got none", pkg, k)
		}
	}
	for _, f := range findings {
		k := fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Check)
		if !want[k] {
			t.Errorf("%s: unexpected finding: %s", pkg, f)
		}
	}
}

func TestBigAliasFixtures(t *testing.T) {
	checkFixture(t, "bigalias_bad", bigAlias)
	checkFixture(t, "bigalias_good", bigAlias)
}

func TestMapOrderFixtures(t *testing.T) {
	checkFixture(t, "maporder_bad", mapOrder)
	checkFixture(t, "maporder_good", mapOrder)
}

func TestErrDropFixtures(t *testing.T) {
	checkFixture(t, "errdrop_bad", errDrop)
	checkFixture(t, "errdrop_good", errDrop)
}

func TestRecBudgetFixtures(t *testing.T) {
	checkFixture(t, "recbudget_bad", recBudget)
	checkFixture(t, "recbudget_good", recBudget)
}

func TestPollPathFixtures(t *testing.T) {
	checkFixture(t, "pollpath_bad", pollPath)
	checkFixture(t, "pollpath_good", pollPath)
}

func TestChargeCoverFixtures(t *testing.T) {
	checkFixture(t, "chargecover_bad", chargeCover)
	checkFixture(t, "chargecover_good", chargeCover)
}

func TestCacheTaintFixtures(t *testing.T) {
	checkFixture(t, "cachetaint_bad", cacheTaint)
	checkFixture(t, "cachetaint_good", cacheTaint)
}

func TestLockOrderFixtures(t *testing.T) {
	checkFixture(t, "lockorder_bad", lockOrder)
	checkFixture(t, "lockorder_good", lockOrder)
}

func TestStaleSuppFixtures(t *testing.T) {
	// stalesupp needs the owning checks in the batch: it only judges
	// directives whose check actually ran over the package. The nopoll
	// directive in the fixture stays unreported because pollpath's
	// scope excludes the package even though it is in the batch.
	checkFixtureAll(t, "stalesupp_bad", []*Analyzer{mapOrder, pollPath, staleSupp})
}

func TestContainRecoverFixtures(t *testing.T) {
	checkFixture(t, "containrecover_bad", containRecover)
	checkFixture(t, "containrecover_good", containRecover)
	// The racing pair: goroutines racing engines outside/inside a
	// fault.Contain boundary, the shape of parallel case-split branches.
	checkFixture(t, "containrecover_race_bad", containRecover)
	checkFixture(t, "containrecover_race_good", containRecover)
}

func TestOverflowGuardFixtures(t *testing.T) {
	checkFixture(t, "overflowguard_bad", overflowGuard)
	checkFixture(t, "overflowguard_good", overflowGuard)
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 11 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 11, nil", len(all), err)
	}
	if all[len(all)-1].Name != "stalesupp" {
		t.Fatalf("stalesupp must run last, got %s", all[len(all)-1].Name)
	}
	two, err := ByName("bigalias, errdrop")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName two checks: %d analyzers, err %v; want 2, nil", len(two), err)
	}
	if two[0].Name != "bigalias" || two[1].Name != "errdrop" {
		t.Fatalf("ByName order: got %s,%s", two[0].Name, two[1].Name)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch): expected error")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Check: "maporder", Msg: "msg"}
	f.Pos.Filename = "x.go"
	f.Pos.Line = 12
	if got, want := f.String(), "x.go:12: [maporder] msg"; got != want {
		t.Fatalf("Finding.String() = %q, want %q", got, want)
	}
}

func TestFindingsSorted(t *testing.T) {
	dir := filepath.Join("testdata", "src", "maporder_bad")
	findings, err := Run("../..", []string{dir}, []*Analyzer{mapOrder})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(findings, func(i, j int) bool {
		if findings[i].Pos.Filename != findings[j].Pos.Filename {
			return findings[i].Pos.Filename < findings[j].Pos.Filename
		}
		return findings[i].Pos.Line < findings[j].Pos.Line
	}) {
		t.Fatalf("findings not sorted: %v", findings)
	}
}
