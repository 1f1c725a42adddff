package stream

import (
	"context"
	"testing"

	"repro/internal/attacks"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/model"
)

// BenchmarkStream streams the standard labeled corpus at 40 samples per
// class (200 targets) through the pool against the 11-PoC Table II
// repository, at the default worker count (GOMAXPROCS) and at one
// worker. One op is the whole stream, producer to last emitted result;
// targets/s is its throughput.
func BenchmarkStream(b *testing.B) {
	repo, err := detect.BuildRepository(attacks.All(attacks.DefaultParams()), model.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.Standard(dataset.Config{PerClass: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	det := detect.NewDetector(repo)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=GOMAXPROCS", 0}, {"workers=1", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := make(chan Target)
				go func() {
					defer close(in)
					for _, s := range ds.Samples {
						in <- Target{ID: s.Name, Program: s.Program, Victim: s.Victim}
					}
				}()
				n := 0
				for r := range Classify(context.Background(), det, in, bc.workers) {
					if r.Err != nil {
						b.Fatalf("%s: %v", r.ID, r.Err)
					}
					n++
				}
				if n != len(ds.Samples) {
					b.Fatalf("stream emitted %d results, want %d", n, len(ds.Samples))
				}
			}
			b.ReportMetric(float64(b.N*len(ds.Samples))/b.Elapsed().Seconds(), "targets/s")
		})
	}
}
