package index

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faultinject"
)

// lineDist places entries on a number line; |x_i − x_j| is a true
// metric with obvious clusters, so the MST cut is easy to verify by
// hand.
func lineDist(xs []float64) DistFunc {
	return func(i, j int) float64 { return math.Abs(xs[i] - xs[j]) }
}

func TestBuildPartitionsOnHeaviestEdges(t *testing.T) {
	// Three obvious groups on a line; the two largest MST edges are the
	// 2→10 and 11→20 gaps, so k=3 must cut exactly there.
	xs := []float64{0, 1, 2, 10, 11, 20}
	ix, err := Build(len(xs), 3, lineDist(xs))
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Clusters) != 3 {
		t.Fatalf("clusters = %d, want 3", len(ix.Clusters))
	}
	wantMembers := [][]int{{0, 1, 2}, {3, 4}, {5}}
	wantMedoid := []int{1, 3, 5} // medoid minimizes distance sums; ties pick the lowest entry
	wantRadius := []float64{1, 1, 0}
	for c, cl := range ix.Clusters {
		got := append([]int{cl.Medoid}, nil...)
		for _, m := range cl.Members {
			got = append(got, m.Entry)
		}
		sortInts(got)
		if !reflect.DeepEqual(got, wantMembers[c]) {
			t.Errorf("cluster %d members = %v, want %v", c, got, wantMembers[c])
		}
		if cl.Medoid != wantMedoid[c] {
			t.Errorf("cluster %d medoid = %d, want %d", c, cl.Medoid, wantMedoid[c])
		}
		if cl.Radius != wantRadius[c] {
			t.Errorf("cluster %d radius = %v, want %v", c, cl.Radius, wantRadius[c])
		}
		for _, m := range cl.Members {
			if want := math.Abs(xs[cl.Medoid] - xs[m.Entry]); m.ProtoDist != want {
				t.Errorf("cluster %d member %d protoDist = %v, want %v", c, m.Entry, m.ProtoDist, want)
			}
		}
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// randomDist builds a deterministic symmetric random matrix.
func randomDist(n int, seed int64) DistFunc {
	rng := rand.New(rand.NewSource(seed))
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			d[i*n+j], d[j*n+i] = v, v
		}
	}
	return func(i, j int) float64 { return d[i*n+j] }
}

func TestBuildDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		dist := randomDist(40, seed)
		a, err := Build(40, 6, dist)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(40, 6, dist)
		if err != nil {
			t.Fatal(err)
		}
		a.BuildTime, b.BuildTime = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two builds over the same distances differ", seed)
		}
	}
}

func TestBuildCoversEveryEntryOnce(t *testing.T) {
	for _, tc := range []struct{ n, k, wantK int }{
		{1, 0, 1}, {2, 0, 1}, {7, 3, 3}, {9, 0, 2}, {25, 0, 3}, {100, 0, 5},
		{10, 1, 1}, {10, 10, 10}, {10, 99, 10},
	} {
		ix, err := Build(tc.n, tc.k, randomDist(tc.n, 7))
		if err != nil {
			t.Fatal(err)
		}
		if len(ix.Clusters) != tc.wantK {
			t.Errorf("n=%d k=%d: clusters = %d, want %d", tc.n, tc.k, len(ix.Clusters), tc.wantK)
		}
		seen := make(map[int]int)
		for _, cl := range ix.Clusters {
			seen[cl.Medoid]++
			for _, m := range cl.Members {
				seen[m.Entry]++
			}
		}
		if len(seen) != tc.n {
			t.Errorf("n=%d k=%d: covered %d entries, want %d", tc.n, tc.k, len(seen), tc.n)
		}
		for e, c := range seen {
			if c != 1 {
				t.Errorf("n=%d k=%d: entry %d appears %d times", tc.n, tc.k, e, c)
			}
		}
	}
}

func TestBuildEmptyAndInfinite(t *testing.T) {
	ix, err := Build(0, 0, nil)
	if err != nil || ix.N != 0 || len(ix.Clusters) != 0 {
		t.Fatalf("empty build: %v %+v", err, ix)
	}
	// Entry 3 is unreachable (+Inf from everyone): its MST edges are the
	// heaviest, so with k=2 it must be cut off into a singleton.
	xs := []float64{0, 1, 2}
	dist := func(i, j int) float64 {
		if i == 3 || j == 3 {
			return math.Inf(1)
		}
		return math.Abs(xs[i] - xs[j])
	}
	ix, err = Build(4, 2, dist)
	if err != nil {
		t.Fatal(err)
	}
	var single *Cluster
	for c := range ix.Clusters {
		if ix.Clusters[c].Medoid == 3 {
			single = &ix.Clusters[c]
		}
	}
	if single == nil || len(single.Members) != 0 {
		t.Fatalf("unreachable entry not isolated: %+v", ix.Clusters)
	}
}

func TestBuildFailpoint(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("injected")
	faultinject.Enable(faultinject.IndexBuild, faultinject.Error(boom))
	if _, err := Build(5, 2, randomDist(5, 1)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	faultinject.Reset()
	if _, err := Build(5, 2, randomDist(5, 1)); err != nil {
		t.Fatalf("build after reset: %v", err)
	}
}

func TestGauges(t *testing.T) {
	xs := []float64{0, 1, 10}
	ix, err := Build(3, 2, lineDist(xs))
	if err != nil {
		t.Fatal(err)
	}
	g := ix.Gauges()
	if g["clusters"] != 2 || g["entries"] != 3 {
		t.Fatalf("gauges = %v", g)
	}
	if g["max_radius_um"] != uint64(1e6) {
		t.Fatalf("max_radius_um = %d, want 1000000", g["max_radius_um"])
	}
	inf := &Index{N: 1, Clusters: []Cluster{{Medoid: 0, Radius: math.Inf(1)}}}
	if inf.Gauges()["max_radius_um"] != math.MaxUint64 {
		t.Fatal("infinite radius should saturate the gauge")
	}
}
