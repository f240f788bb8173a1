package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		name string
		line string
		want result
		ok   bool
	}{
		{
			name: "GOMAXPROCS suffix stripped",
			line: "BenchmarkTableLookupHot-2   	  100000	       136.6 ns/op	       0 B/op	       0 allocs/op",
			want: result{name: "TableLookupHot", nsPerOp: 136.6, allocs: 0},
			ok:   true,
		},
		{
			name: "sub-benchmark suffix stripped",
			line: "BenchmarkAllQValuesFast/exact-16 10000 522.7 ns/op 0 B/op 0 allocs/op",
			want: result{name: "AllQValuesFast/exact", nsPerOp: 522.7, allocs: 0},
			ok:   true,
		},
		{
			name: "no suffix",
			line: "BenchmarkTableLookupHot 100000 136.6 ns/op 0 B/op 0 allocs/op",
			want: result{name: "TableLookupHot", nsPerOp: 136.6, allocs: 0},
			ok:   true,
		},
		{
			name: "non-numeric dash kept",
			line: "BenchmarkIslandSearch/islands=2-x 1 5.0 ns/op 3 allocs/op",
			want: result{name: "IslandSearch/islands=2-x", nsPerOp: 5, allocs: 3},
			ok:   true,
		},
		{
			name: "custom metrics ignored",
			line: "BenchmarkFig5HeadOn-2 2000 115611 ns/op 0 NMAC-rate 202.8 mean-min-sep-m 0 B/op 0 allocs/op",
			want: result{name: "Fig5HeadOn", nsPerOp: 115611, allocs: 0},
			ok:   true,
		},
		{
			name: "missing allocs column",
			line: "BenchmarkFig5HeadOn-2 2000 115611 ns/op",
			want: result{name: "Fig5HeadOn", nsPerOp: 115611, allocs: -1},
			ok:   true,
		},
		{name: "header", line: "cpu: Intel(R) Xeon(R) Processor"},
		{name: "failure line", line: "BenchmarkFig5HeadOn-2 --- FAIL: boom"},
		{name: "no ns/op", line: "BenchmarkFig5HeadOn-2 2000 0 allocs/op"},
		{name: "bare name", line: "BenchmarkAllQValuesFast"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseLine(tc.line)
			if ok != tc.ok || (ok && got != tc.want) {
				t.Errorf("parseLine(%q) = %+v, %v; want %+v, %v", tc.line, got, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestParseKeepsBestRun(t *testing.T) {
	out := `goos: linux
BenchmarkFig5HeadOn-2 2000 121000 ns/op 0 B/op 0 allocs/op
BenchmarkTableLookupHot-2 100000 140.0 ns/op 0 B/op 0 allocs/op
BenchmarkFig5HeadOn-2 2000 118000 ns/op 0 B/op 0 allocs/op
PASS
BenchmarkFig5HeadOn-2 2000 125000 ns/op 0 B/op 0 allocs/op
BenchmarkTableLookupHot-2 100000 136.0 ns/op 0 B/op 0 allocs/op
`
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []result{
		{name: "Fig5HeadOn", nsPerOp: 118000, allocs: 0},
		{name: "TableLookupHot", nsPerOp: 136, allocs: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("parse = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("parse[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestGate(t *testing.T) {
	const base = "BenchmarkFig5HeadOn-2 2000 1000 ns/op 0 B/op 0 allocs/op\n"
	cases := []struct {
		name    string
		old     string
		cur     string
		wantErr string // "" = the gate passes
		report  string // substring the table must contain
	}{
		{
			name:   "unchanged",
			old:    base,
			cur:    base,
			report: "+0.0%",
		},
		{
			name:   "faster",
			old:    base,
			cur:    "BenchmarkFig5HeadOn-2 2000 500 ns/op 0 B/op 0 allocs/op\n",
			report: "-50.0%",
		},
		{
			name:   "regression of exactly 25.0% passes",
			old:    base,
			cur:    "BenchmarkFig5HeadOn-2 2000 1250 ns/op 0 B/op 0 allocs/op\n",
			report: "+25.0%",
		},
		{
			name:    "regression of 25.1% fails",
			old:     base,
			cur:     "BenchmarkFig5HeadOn-2 2000 1251 ns/op 0 B/op 0 allocs/op\n",
			wantErr: "Fig5HeadOn regressed 25.1%",
		},
		{
			name: "best run is compared",
			old:  base,
			cur: "BenchmarkFig5HeadOn-2 2000 1900 ns/op 0 B/op 0 allocs/op\n" +
				"BenchmarkFig5HeadOn-2 2000 1100 ns/op 0 B/op 0 allocs/op\n",
			report: "+10.0%",
		},
		{
			name:    "one allocation fails",
			old:     base,
			cur:     "BenchmarkFig5HeadOn-2 2000 1000 ns/op 16 B/op 1 allocs/op\n",
			wantErr: "Fig5HeadOn reports 1 allocs/op",
		},
		{
			name:    "missing allocs column fails",
			old:     base,
			cur:     "BenchmarkFig5HeadOn-2 2000 1000 ns/op\n",
			wantErr: "Fig5HeadOn reports no allocs/op",
		},
		{
			name:   "missing from OLD is reported, not gated",
			old:    "",
			cur:    "BenchmarkFig5HeadOn-2 2000 9000 ns/op 0 B/op 0 allocs/op\n",
			report: "new",
		},
		{
			name:   "missing from NEW is reported",
			old:    base + "BenchmarkTableLookupHot-2 100000 136.0 ns/op 0 B/op 0 allocs/op\n",
			cur:    base,
			report: "removed",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old, err := parse(strings.NewReader(tc.old))
			if err != nil {
				t.Fatal(err)
			}
			cur, err := parse(strings.NewReader(tc.cur))
			if err != nil {
				t.Fatal(err)
			}
			var table strings.Builder
			err = gate(old, cur, &table)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v\n%s", err, table.String())
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want error %q\n%s", tc.wantErr, table.String())
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("gate error %q does not mention %q", err, tc.wantErr)
			}
			if !strings.Contains(table.String(), tc.report) {
				t.Errorf("table does not mention %q:\n%s", tc.report, table.String())
			}
		})
	}
}

func TestRunRejectsEmptyNew(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.txt")
	newPath := filepath.Join(dir, "new.txt")
	if err := os.WriteFile(oldPath, []byte("BenchmarkFig5HeadOn-2 2000 1000 ns/op 0 B/op 0 allocs/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte("FAIL\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	if err := run(oldPath, newPath, &table); err == nil || !strings.Contains(err.Error(), "no benchmark lines") {
		t.Errorf("run on output without benchmarks = %v, want a no-benchmark-lines error", err)
	}
	if err := run(oldPath, filepath.Join(dir, "missing.txt"), &table); err == nil {
		t.Error("run on a missing NEW file succeeded")
	}
}
