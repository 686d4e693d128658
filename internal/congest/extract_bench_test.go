package congest

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/plane"
)

// macroIndex builds the n×n macro-grid obstacle index (n² cells) the
// extraction benchmarks run over — the same scene family the negotiation
// benchmarks use.
func macroIndex(b *testing.B, n int) *plane.Index {
	b.Helper()
	l, err := gen.MacroGrid(n, n, 40, 30, 12, 10)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := plane.FromLayout(l)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// BenchmarkExtract measures passage extraction on macro grids. Sweep is
// the production path (plane-sweep candidates + interval-tree intrusion
// stabs, near-linear); Naive is the seed-era quadratic extractor kept as
// the property-test reference. The extract-ms metric is the per-op wall
// time in milliseconds; CI gates on the Sweep64 series staying fast
// (cmd/benchreport -require 'BenchmarkExtract/Sweep64:extract-ms<=...').
func BenchmarkExtract(b *testing.B) {
	for _, bc := range []struct {
		name  string
		cells int
		naive bool
	}{
		{"Sweep32", 32, false},
		{"Sweep64", 64, false},
		{"Naive64", 64, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ix := macroIndex(b, bc.cells)
			b.ReportAllocs()
			b.ResetTimer()
			var passages []Passage
			for i := 0; i < b.N; i++ {
				if bc.naive {
					passages = extractNaive(ix, 8)
				} else {
					var err error
					passages, err = Extract(ix, 8)
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if len(passages) == 0 {
				b.Fatal("no passages extracted")
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "extract-ms")
			b.ReportMetric(float64(len(passages)), "passages/op")
		})
	}
}
