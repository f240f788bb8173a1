package acasx

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"sync"
	"testing"

	"acasxval/internal/stats"
)

// randomStates draws n seeded query states spanning the table's domain,
// deliberately overshooting the bounds so clamping paths are exercised.
func randomStates(table *Table, n int, seed uint64) []struct{ tau, h, dh0, dh1 float64 } {
	rng := stats.NewRNG(seed)
	g := table.cfg.Grid
	out := make([]struct{ tau, h, dh0, dh1 float64 }, n)
	for i := range out {
		out[i].tau = rng.Float64()*float64(g.Horizon+4) - 2
		out[i].h = (rng.Float64()*2 - 1) * g.HMax * 1.2
		out[i].dh0 = (rng.Float64()*2 - 1) * g.RateMax * 1.2
		out[i].dh1 = (rng.Float64()*2 - 1) * g.RateMax * 1.2
	}
	return out
}

// TestSharedWeightLookupGolden is the golden equivalence test for the
// shared-weight lookup: AllQValues, BestAdvisory and Value must agree
// bit for bit with the per-action QValue reference path across a seeded
// random state sample, for every advisory state and mask.
func TestSharedWeightLookupGolden(t *testing.T) {
	table := getCoarseTable(t)
	masks := []SenseMask{
		{},
		{BanUp: true},
		{BanDown: true},
		{BanUp: true, BanDown: true},
	}
	for _, s := range randomStates(table, 300, 7) {
		for ra := 0; ra < NumAdvisories; ra++ {
			var q [NumAdvisories]float64
			table.AllQValues(&q, s.tau, s.h, s.dh0, s.dh1, Advisory(ra))
			refBest := math.Inf(-1)
			for a := 0; a < NumAdvisories; a++ {
				ref := table.QValue(s.tau, s.h, s.dh0, s.dh1, Advisory(ra), Advisory(a))
				if math.Float64bits(q[a]) != math.Float64bits(ref) {
					t.Fatalf("state %+v ra=%d a=%d: AllQValues %v != QValue %v", s, ra, a, q[a], ref)
				}
				if ref > refBest {
					refBest = ref
				}
			}
			if got := table.Value(s.tau, s.h, s.dh0, s.dh1, Advisory(ra)); math.Float64bits(got) != math.Float64bits(refBest) {
				t.Fatalf("state %+v ra=%d: Value %v != max-over-QValue %v", s, ra, got, refBest)
			}
			for _, mask := range masks {
				// Reference: the original per-action argmax over QValue.
				wantBest, wantFound := COC, false
				wantQ := math.Inf(-1)
				for _, a := range Advisories() {
					if !mask.Allows(a) {
						continue
					}
					if ref := table.QValue(s.tau, s.h, s.dh0, s.dh1, Advisory(ra), a); ref > wantQ {
						wantQ, wantBest, wantFound = ref, a, true
					}
				}
				gotBest, gotFound := table.BestAdvisory(s.tau, s.h, s.dh0, s.dh1, Advisory(ra), mask)
				if gotBest != wantBest || gotFound != wantFound {
					t.Fatalf("state %+v ra=%d mask=%+v: fast (%v,%v) != reference (%v,%v)",
						s, ra, mask, gotBest, gotFound, wantBest, wantFound)
				}
			}
		}
	}
}

// TestAllQValuesInvalidAdvisoryState: an invalid ra yields -Inf across the
// board and no selectable advisory, matching the per-action path.
func TestAllQValuesInvalidAdvisoryState(t *testing.T) {
	table := getCoarseTable(t)
	var q [NumAdvisories]float64
	table.AllQValues(&q, 10, 0, 0, 0, Advisory(99))
	for a, v := range q {
		if !math.IsInf(v, -1) {
			t.Fatalf("a=%d: got %v, want -Inf", a, v)
		}
	}
	if _, ok := table.BestAdvisory(10, 0, 0, 0, Advisory(99), SenseMask{}); ok {
		t.Fatal("BestAdvisory accepted an invalid advisory state")
	}
}

// TestBeliefExpectedAllQGolden: the belief executive's batched integration
// must agree bit for bit with the per-action expectedQ reference.
func TestBeliefExpectedAllQGolden(t *testing.T) {
	table := getCoarseTable(t)
	for _, sigmas := range []BeliefSigmas{
		DefaultBeliefSigmas(),
		{H: 0, Rate: 0.5, Tau: 0}, // zero-sigma dimensions skip nodes
		{},
	} {
		l, err := NewBeliefLogic(table, sigmas)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range randomStates(table, 60, 11) {
			for ra := 0; ra < NumAdvisories; ra++ {
				var q [NumAdvisories]float64
				l.expectedAllQ(&q, s.tau, s.h, s.dh0, s.dh1, Advisory(ra))
				for a := 0; a < NumAdvisories; a++ {
					ref := l.expectedQ(s.tau, s.h, s.dh0, s.dh1, Advisory(ra), Advisory(a))
					if math.Float64bits(q[a]) != math.Float64bits(ref) {
						t.Fatalf("sigmas %+v state %+v ra=%d a=%d: %v != %v", sigmas, s, ra, a, q[a], ref)
					}
				}
			}
		}
	}
}

// tableChecksum is the SHA-256 of a table's Q values: every slice in order,
// every value as its little-endian IEEE-754 bits.
func tableChecksum(table *Table) string {
	h := sha256.New()
	var buf [8]byte
	for _, slice := range table.q {
		for _, v := range slice {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTableChecksumGolden pins the offline solve bit for bit: the tiny and
// coarse tables must hash to the checked-in digests at every worker count.
// TestBuilderMatchesGenericSolver is the independent oracle for what the
// values mean; this test catches any change to the floating-point operation
// order of the sweep, which would move every downstream golden.
func TestTableChecksumGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"tiny", tinyConfig(), "2aa3041fbce5c5d573180771d90b0e80ac24e7127223d881f141f171857f21e7"},
		{"coarse", CoarseConfig(), "e84e162a121e2e1929b7ac61d675f7b5ec47062dbd8e2f1fcb481489ee7296b2"},
	} {
		for _, workers := range []int{1, 4} {
			cfg := tc.cfg
			cfg.Workers = workers
			table, err := BuildTable(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := tableChecksum(table); got != tc.want {
				t.Errorf("%s workers=%d: checksum %s, want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}

// TestReadTableLegacyFlagBit2: files written by older builds with an int16
// compressed copy set flag bit 2 and carry the full float64 payload. They
// must load as plain tables, and re-serializing must clear the bit.
func TestReadTableLegacyFlagBit2(t *testing.T) {
	table, err := BuildTable(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := table.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	legacy := append([]byte(nil), clean...)
	var cfg Config
	flagsAt := len(tableMagic) + 4 + 8*len(configFields(&cfg)) + 8*len(configInts(&cfg))
	if legacy[flagsAt]&2 != 0 {
		t.Fatal("WriteTo set flag bit 2")
	}
	legacy[flagsAt] |= 2
	body := len(legacy) - 4
	binary.LittleEndian.PutUint32(legacy[body:], crc32.ChecksumIEEE(legacy[:body]))

	loaded, err := ReadTable(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy file rejected: %v", err)
	}
	if got, want := tableChecksum(loaded), tableChecksum(table); got != want {
		t.Fatalf("legacy file loaded different Q values: %s != %s", got, want)
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), clean) {
		t.Fatal("re-serialized legacy table differs from the original file")
	}
}

// TestLookupHotPathZeroAlloc is the allocation gate on the online hot path:
// a decision-cycle table query must not allocate. CI additionally runs
// BenchmarkTableLookupHot with -benchmem and fails on a non-zero allocs/op.
func TestLookupHotPathZeroAlloc(t *testing.T) {
	table := getCoarseTable(t)
	var sink Advisory
	allocs := testing.AllocsPerRun(200, func() {
		sink, _ = table.BestAdvisory(12.5, 30, 1.5, -2.5, COC, SenseMask{})
	})
	if allocs != 0 {
		t.Fatalf("BestAdvisory allocated %v times per run", allocs)
	}
	var q [NumAdvisories]float64
	allocs = testing.AllocsPerRun(200, func() {
		table.AllQValues(&q, 7.25, -40, 2, 1, Climb1500)
	})
	if allocs != 0 {
		t.Fatalf("AllQValues allocated %v times per run", allocs)
	}
	_ = sink
}

// The lookup benchmark runs the full-resolution table (38.8 MB of float64
// slices — larger than the last-level cache, so uncorrelated queries pay
// DRAM latency). The coarse test table would hide that cost: it fits in L2.
var (
	fullTableOnce sync.Once
	fullTable     *Table
	fullTableErr  error
)

func getFullTable(tb testing.TB) *Table {
	tb.Helper()
	fullTableOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Workers = 8
		fullTable, fullTableErr = BuildTable(cfg)
	})
	if fullTableErr != nil {
		tb.Fatal(fullTableErr)
	}
	return fullTable
}

// BenchmarkAllQValuesFast measures one shared-weight advisory-vector lookup
// per op on the full table — the innermost unit of every decision cycle —
// over a domain-spanning random query stream (the worst case for locality;
// an episode's own trajectory corridor is far more correlated). The perf
// tripwire (scripts/benchgate.sh) compares the exact sub-benchmark by name
// against the base commit, so keep both names stable.
func BenchmarkAllQValuesFast(b *testing.B) {
	b.Run("exact", func(b *testing.B) {
		table := getFullTable(b)
		states := randomStates(table, 4096, 51)
		var qv [NumAdvisories]float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := states[i&4095]
			table.AllQValues(&qv, s.tau, s.h, s.dh0, s.dh1, Advisory(i%NumAdvisories))
		}
	})
}
