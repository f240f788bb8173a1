// Command benchgate is the CI perf regression tripwire. It compares two raw
// `go test -bench -benchmem` outputs of the same benchmarks, measured on the
// same machine, and exits non-zero when the new side regressed:
//
//	benchgate OLD.txt NEW.txt
//
// scripts/benchgate.sh produces both files from a base commit and the
// working tree. Repeated runs of one benchmark (rounds, or -count N)
// collapse to the best run, minimum ns/op, so the gate measures the
// machine's capability rather than scheduler noise: the DRAM-bound gather
// benchmarks swing ±30% run to run under load, and best-of-N is the stable
// statistic.
//
// A NEW benchmark fails the gate when its best ns/op is more than
// maxRegress percent above OLD's, or when it reports non-zero allocs/op or
// no allocs/op at all. A benchmark missing from OLD is reported as new and
// not compared; one missing from NEW is reported as removed. Custom
// b.ReportMetric columns are ignored. Violations are listed after the
// table and the exit status is 1.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// maxRegress is the ns/op regression, in percent of OLD's best run, past
// which a benchmark fails the gate.
const maxRegress = 25.0

// result is one parsed benchmark line.
type result struct {
	name    string
	nsPerOp float64
	allocs  float64 // -1 when the line has no allocs/op column
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate OLD.txt NEW.txt")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// run gates the benchmark output in newPath against the one in oldPath.
func run(oldPath, newPath string, w io.Writer) error {
	old, err := load(oldPath)
	if err != nil {
		return err
	}
	cur, err := load(newPath)
	if err != nil {
		return err
	}
	if len(cur) == 0 {
		return fmt.Errorf("%s: no benchmark lines found", newPath)
	}
	return gate(old, cur, w)
}

func load(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// parse scans `go test -bench` output and collapses duplicate benchmark
// names to the entry with the minimum ns/op, preserving first-seen order.
func parse(r io.Reader) ([]result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	at := make(map[string]int)
	var out []result
	for sc.Scan() {
		b, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if i, seen := at[b.name]; seen {
			if b.nsPerOp < out[i].nsPerOp {
				out[i] = b
			}
			continue
		}
		at[b.name] = len(out)
		out = append(out, b)
	}
	return out, sc.Err()
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName[-procs] <iterations> [<value> <unit>]...
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return result{}, false
	}
	b := result{name: name, nsPerOp: -1, allocs: -1}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.nsPerOp = v
		case "allocs/op":
			b.allocs = v
		}
	}
	return b, b.nsPerOp >= 0
}

// gate prints the OLD-versus-NEW table to w and returns an error listing
// every violation.
func gate(old, cur []result, w io.Writer) error {
	oldBy := make(map[string]result, len(old))
	for _, o := range old {
		oldBy[o.name] = o
	}
	var violations []string
	const row = "%-32s %14s %14s %9s %10s\n"
	fmt.Fprintf(w, row, "benchmark", "old ns/op", "new ns/op", "change", "allocs/op")
	for _, b := range cur {
		allocs := "-"
		switch {
		case b.allocs < 0:
			violations = append(violations, fmt.Sprintf("%s reports no allocs/op; run it with -benchmem", b.name))
		case b.allocs > 0:
			allocs = fmt.Sprintf("%.0f", b.allocs)
			violations = append(violations, fmt.Sprintf("%s reports %s allocs/op; gated benchmarks must stay zero-alloc", b.name, allocs))
		default:
			allocs = "0"
		}
		o, ok := oldBy[b.name]
		if !ok {
			fmt.Fprintf(w, row, b.name, "-", ns(b.nsPerOp), "new", allocs)
			continue
		}
		delete(oldBy, b.name)
		change := (b.nsPerOp - o.nsPerOp) / o.nsPerOp * 100
		if change > maxRegress {
			violations = append(violations, fmt.Sprintf("%s regressed %.1f%% (%.1f -> %.1f ns/op), limit %.0f%%",
				b.name, change, o.nsPerOp, b.nsPerOp, maxRegress))
		}
		fmt.Fprintf(w, row, b.name, ns(o.nsPerOp), ns(b.nsPerOp), fmt.Sprintf("%+.1f%%", change), allocs)
	}
	for _, o := range old {
		if _, left := oldBy[o.name]; left {
			fmt.Fprintf(w, row, o.name, ns(o.nsPerOp), "-", "removed", "-")
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d gate violation(s):\n  %s", len(violations), strings.Join(violations, "\n  "))
	}
	return nil
}

func ns(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
