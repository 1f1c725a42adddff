package detect

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/model"
	"repro/internal/mutate"
	"repro/internal/similarity"
)

// serialClassify is the pre-engine reference implementation of
// ClassifyBBS: a plain loop over the entries calling similarity.Score,
// kept verbatim so the scan-engine path can be checked against it.
func serialClassify(d *Detector, bbs *model.CSTBBS) Result {
	res := Result{Predicted: attacks.FamilyBenign, Best: Match{Family: attacks.FamilyBenign}}
	if bbs.Len() < MinModelLen {
		return res
	}
	if d.RequireTimer && bbs.TimerReads == 0 {
		return res
	}
	for _, e := range d.Repo.Entries {
		s := similarity.Score(bbs, e.BBS, d.SimOpts)
		res.Matches = append(res.Matches, Match{Name: e.Name, Family: e.Family, Score: s})
	}
	sort.SliceStable(res.Matches, func(i, j int) bool {
		return res.Matches[i].Score > res.Matches[j].Score
	})
	if len(res.Matches) > 0 {
		res.Best = res.Matches[0]
		if res.Best.Score >= d.Threshold {
			res.Predicted = res.Best.Family
		}
	}
	return res
}

// corpusTargets builds a broad target set: every PoC in the catalog,
// light mutants of a few, and benign programs.
func corpusTargets(t *testing.T) []*model.CSTBBS {
	t.Helper()
	p := attacks.DefaultParams()
	var progs []attacks.PoC
	progs = append(progs, attacks.All(p)...)
	for i, poc := range attacks.All(p)[:3] {
		mut, err := mutate.Mutate(poc.Program, mutate.LightConfig(int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, attacks.PoC{Name: poc.Name + "-mut", Family: poc.Family, Program: mut, Victim: poc.Victim})
	}
	var out []*model.CSTBBS
	for _, poc := range progs {
		m, err := model.Build(poc.Program, poc.Victim, model.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m.BBS)
	}
	for i, spec := range []benign.Spec{
		{Kind: benign.KindLeetcode, Template: "binary-search", Seed: 21},
		{Kind: benign.KindSpec, Template: "stream", Seed: 22},
	} {
		m, err := model.Build(benign.MustGenerate(spec), nil, model.DefaultConfig())
		if err != nil {
			t.Fatalf("benign %d: %v", i, err)
		}
		out = append(out, m.BBS)
	}
	return out
}

// The scan-engine classification must be bit-identical to the serial
// reference over the full corpus: same prediction, same match order,
// same scores (exactly — the acceptance bar of 1e-12 is met with
// slack).
func TestParallelClassifyMatchesSerial(t *testing.T) {
	r := repo(t)
	targets := corpusTargets(t)
	for _, workers := range []int{1, 2, 4} {
		d := NewDetector(r)
		d.Scan.Workers = workers
		for ti, bbs := range targets {
			got := d.ClassifyBBS(bbs)
			want := serialClassify(d, bbs)
			if got.Predicted != want.Predicted {
				t.Errorf("workers=%d target %d: predicted %s, serial %s", workers, ti, got.Predicted, want.Predicted)
			}
			if got.Best != want.Best {
				t.Errorf("workers=%d target %d: best %+v, serial %+v", workers, ti, got.Best, want.Best)
			}
			if len(got.Matches) != len(want.Matches) {
				t.Fatalf("workers=%d target %d: %d matches, serial %d", workers, ti, len(got.Matches), len(want.Matches))
			}
			for i := range got.Matches {
				if got.Matches[i] != want.Matches[i] {
					t.Errorf("workers=%d target %d match %d: %+v != %+v", workers, ti, i, got.Matches[i], want.Matches[i])
				}
				if math.Abs(got.Matches[i].Score-want.Matches[i].Score) > 1e-12 {
					t.Errorf("workers=%d target %d match %d: score drift", workers, ti, i)
				}
			}
		}
	}
}

// Pruned mode may relabel non-winning matches, but the decision surface
// — prediction and best match — must stay exact.
func TestPrunedClassifyKeepsDecision(t *testing.T) {
	r := repo(t)
	targets := corpusTargets(t)
	exact := NewDetector(r)
	fast := NewDetector(r)
	fast.Scan.Prune = true
	fast.Scan.Workers = 4
	for ti, bbs := range targets {
		want := exact.ClassifyBBS(bbs)
		got := fast.ClassifyBBS(bbs)
		if got.Predicted != want.Predicted {
			t.Errorf("target %d: pruned predicted %s, exact %s", ti, got.Predicted, want.Predicted)
		}
		if got.Best != want.Best {
			t.Errorf("target %d: pruned best %+v, exact %+v", ti, got.Best, want.Best)
		}
		if got.Best.Pruned {
			t.Errorf("target %d: best match marked pruned", ti)
		}
		// Pruned scores are upper bounds; exact ones are exact. Either
		// way no entry may report a score below its true value.
		exactByName := make(map[string]float64, len(want.Matches))
		for _, m := range want.Matches {
			exactByName[m.Name] = m.Score
		}
		for _, m := range got.Matches {
			if m.Score < exactByName[m.Name]-1e-12 {
				t.Errorf("target %d %s: pruned score %v below exact %v", ti, m.Name, m.Score, exactByName[m.Name])
			}
		}
	}
}

// An empty repository must produce an explicit benign result: benign
// prediction, a Best naming the benign family, and no matches.
func TestEmptyRepositoryExplicitBenign(t *testing.T) {
	d := NewDetector(&Repository{})
	p := attacks.DefaultParams()
	poc := attacks.FlushReloadIAIK(p)
	m, err := model.Build(poc.Program, poc.Victim, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]Result{
		"attack-target": d.ClassifyBBS(m.BBS),
		"gated-target":  d.ClassifyBBS(&model.CSTBBS{Name: "tiny"}),
	} {
		if res.Predicted != attacks.FamilyBenign {
			t.Errorf("%s: predicted %s", name, res.Predicted)
		}
		if res.Best.Family != attacks.FamilyBenign || res.Best.Name != "" {
			t.Errorf("%s: best = %+v, want explicit benign", name, res.Best)
		}
		if len(res.Matches) != 0 {
			t.Errorf("%s: %d matches from empty repository", name, len(res.Matches))
		}
	}
}

// Repository and Detector are safe for concurrent use: goroutines
// classifying through one detector while another keeps calling Add must
// be race-free (run under -race) and each classification must be
// internally consistent.
func TestConcurrentClassifyAndAdd(t *testing.T) {
	base := repo(t)
	// Private growing repository so the shared fixture stays untouched.
	r := &Repository{}
	entries, _ := base.snapshot()
	for _, e := range entries[:2] {
		r.Add(e.Name, e.Family, e.BBS)
	}
	d := NewDetector(r)
	targets := corpusTargets(t)[:4]

	// The writer is capped: every Add invalidates the readers' cached
	// engines, so an unbounded writer would make each classification
	// rescan an ever-growing repository.
	const maxAdds = 64
	var writerWg, readerWg sync.WaitGroup
	stop := make(chan struct{})
	writerWg.Add(1)
	go func() { // writer: grows the repository while readers classify
		defer writerWg.Done()
		for i := 0; i < maxAdds; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := entries[2+i%(len(entries)-2)]
			r.Add(fmt.Sprintf("%s#%d", e.Name, i), e.Family, e.BBS)
		}
	}()
	for g := 0; g < 4; g++ {
		readerWg.Add(1)
		go func(g int) {
			defer readerWg.Done()
			for iter := 0; iter < 8; iter++ {
				res := d.ClassifyBBS(targets[(g+iter)%len(targets)])
				for i := 1; i < len(res.Matches); i++ {
					if res.Matches[i-1].Score < res.Matches[i].Score {
						t.Errorf("goroutine %d: matches out of order", g)
					}
				}
				if len(res.Matches) > 0 && res.Best != res.Matches[0] {
					t.Errorf("goroutine %d: best != first match", g)
				}
				// Save may run concurrently with everything else.
				if err := r.Save(discard{}); err != nil {
					t.Errorf("goroutine %d: save: %v", g, err)
				}
			}
		}(g)
	}
	readerWg.Wait()
	close(stop)
	writerWg.Wait()
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// The engine cache must notice repository growth and configuration
// changes, never serving stale entries.
func TestEngineRebuilds(t *testing.T) {
	base := repo(t)
	entries, _ := base.snapshot()
	r := &Repository{}
	r.Add(entries[0].Name, entries[0].Family, entries[0].BBS)
	d := NewDetector(r)
	targets := corpusTargets(t)[:1]

	res1 := d.ClassifyBBS(targets[0])
	if len(res1.Matches) != 1 {
		t.Fatalf("matches = %d, want 1", len(res1.Matches))
	}
	r.Add(entries[1].Name, entries[1].Family, entries[1].BBS)
	res2 := d.ClassifyBBS(targets[0])
	if len(res2.Matches) != 2 {
		t.Fatalf("after Add: matches = %d, want 2", len(res2.Matches))
	}
	// A SimOpts change must invalidate the cached engine too.
	d.SimOpts = similarity.Options{ISWeight: 0, CSPWeight: 1, Window: d.SimOpts.Window}
	res3 := d.ClassifyBBS(targets[0])
	want := serialClassify(d, targets[0])
	for i := range res3.Matches {
		if res3.Matches[i] != want.Matches[i] {
			t.Errorf("after SimOpts change: match %d = %+v, want %+v", i, res3.Matches[i], want.Matches[i])
		}
	}
}
