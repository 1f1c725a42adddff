package detect

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/attacks"
	"repro/internal/model"
)

// TestBuildRepositoryMatchesSerial checks the parallel repository build
// against a serial loop written out here: the same entries, in the same
// order, serializing to the same bytes.
func TestBuildRepositoryMatchesSerial(t *testing.T) {
	pocs := attacks.All(attacks.DefaultParams())
	cfg := model.DefaultConfig()
	got, err := BuildRepository(pocs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := &Repository{}
	for _, poc := range pocs {
		m, err := model.Build(poc.Program, poc.Victim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(poc.Name, poc.Family, m.BBS)
	}
	var gb, wb bytes.Buffer
	if err := got.Save(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&wb); err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(pocs) || !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("parallel build (%d entries) differs from the serial loop (%d entries)", got.Len(), want.Len())
	}
	if got.Version() != want.Version() {
		t.Fatalf("version %d, serial %d", got.Version(), want.Version())
	}
}

// TestBuildModelsFirstErrorByIndex makes a later job fail first in time
// and checks that the error returned is still the earlier job's.
func TestBuildModelsFirstErrorByIndex(t *testing.T) {
	for rep := 0; rep < 5; rep++ {
		_, err := buildModels(8, func(i int) (*model.CSTBBS, error) {
			switch i {
			case 2:
				time.Sleep(20 * time.Millisecond)
				return nil, fmt.Errorf("job %d", i)
			case 5:
				return nil, fmt.Errorf("job %d", i)
			}
			return &model.CSTBBS{}, nil
		})
		if err == nil || err.Error() != "job 2" {
			t.Fatalf("error %v, want job 2", err)
		}
	}
	out, err := buildModels(3, func(i int) (*model.CSTBBS, error) { return &model.CSTBBS{}, nil })
	if err != nil || len(out) != 3 || out[0] == nil || out[2] == nil {
		t.Fatalf("clean run: %v, %v", out, err)
	}
}

// TestBuildModelsRepanics checks that a panicking job panics the caller,
// as it would in a serial loop, instead of crashing a worker goroutine.
func TestBuildModelsRepanics(t *testing.T) {
	boom := errors.New("boom")
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("recovered %v, want the job's panic value", r)
		}
	}()
	buildModels(4, func(i int) (*model.CSTBBS, error) {
		if i == 1 {
			panic(boom)
		}
		return &model.CSTBBS{}, nil
	})
	t.Fatal("buildModels returned after a job panicked")
}

// BenchmarkBuildVariantRepository measures the stress-corpus build, one
// op per 100-variant repository (PerFamily 25): mutation, simulation
// and modeling of every variant, on GOMAXPROCS workers. Run it with
// -cpu 1,2 to separate the parallel speedup from the per-model cost.
func BenchmarkBuildVariantRepository(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildVariantRepository(CorpusConfig{PerFamily: 25, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
