package scaguard

// The golden corpus test pins the end-to-end verdict of every program
// in the repository's example corpus — canonical and extension attack
// PoCs, the hand-written testdata programs and one benign sample per
// Table-III kind — against the built-in detector. Any change to
// modeling, similarity or scanning that shifts a family verdict or a
// best score shows up as a diff against testdata/golden_verdicts.json.
//
// Regenerate after an intentional pipeline change with:
//
//	go test -run Golden -update .

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_verdicts.json from the current pipeline")

const goldenPath = "testdata/golden_verdicts.json"

// goldenVerdict is one classification outcome, scored against the
// built-in repository with default (exact) settings.
type goldenVerdict struct {
	Target   string  `json:"target"`
	Family   string  `json:"family"`
	Best     string  `json:"best"`
	Score    float64 `json:"score"`
	ModelLen int     `json:"model_len"`
}

type goldenTarget struct {
	name   string
	prog   *Program
	victim *Program
}

func goldenCorpus(t *testing.T) []goldenTarget {
	t.Helper()
	var targets []goldenTarget
	for _, name := range append(AttackNames(), ExtensionNames()...) {
		poc := MustAttack(name)
		targets = append(targets, goldenTarget{name: "attack:" + name, prog: poc.Program, victim: poc.Victim})
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ParseProgram(filepath.Base(f), string(src))
		if err != nil {
			t.Fatalf("parse %s: %v", f, err)
		}
		targets = append(targets, goldenTarget{name: "file:" + filepath.Base(f), prog: prog})
	}
	for _, kind := range BenignKinds() {
		tmpls := BenignTemplates(kind)
		if len(tmpls) == 0 {
			continue
		}
		sort.Strings(tmpls)
		prog, err := GenerateBenign(kind, tmpls[0], 1)
		if err != nil {
			t.Fatalf("benign %s/%s: %v", kind, tmpls[0], err)
		}
		targets = append(targets, goldenTarget{name: "benign:" + kind + "/" + tmpls[0] + "/1", prog: prog})
	}
	return targets
}

// shardFleet serves repo's partition across n loopback shard servers
// (ServeShard, what `scaguard shard-serve` runs) and returns their
// addresses.
func shardFleet(t *testing.T, repo *Repository, n int, cfg ShardServerConfig) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		bound, shutdown, err := ServeShard(repo, n, i, "127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = shutdown(context.Background()) })
		addrs[i] = bound
	}
	return addrs
}

func TestGoldenVerdicts(t *testing.T) {
	det, err := NewDetector()
	if err != nil {
		t.Fatal(err)
	}
	var got []goldenVerdict
	for _, tgt := range goldenCorpus(t) {
		res, m, err := det.Classify(tgt.prog, tgt.victim)
		if err != nil {
			t.Fatalf("classify %s: %v", tgt.name, err)
		}
		got = append(got, goldenVerdict{
			Target:   tgt.name,
			Family:   string(res.Predicted),
			Best:     res.Best.Name,
			Score:    res.Best.Score,
			ModelLen: m.BBS.Len(),
		})
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d verdicts to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with `go test -run Golden -update .`): %v", err)
	}
	var want []goldenVerdict
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantBy := make(map[string]goldenVerdict, len(want))
	for _, v := range want {
		wantBy[v.Target] = v
	}
	if len(got) != len(want) {
		t.Errorf("corpus size changed: got %d verdicts, golden has %d", len(got), len(want))
	}
	const scoreTol = 1e-9
	for _, g := range got {
		w, ok := wantBy[g.Target]
		if !ok {
			t.Errorf("%s: not in golden file (new corpus entry? regenerate with -update)", g.Target)
			continue
		}
		if g.Family != w.Family {
			t.Errorf("%s: family %q, golden %q", g.Target, g.Family, w.Family)
		}
		if g.Best != w.Best {
			t.Errorf("%s: best match %q, golden %q", g.Target, g.Best, w.Best)
		}
		if math.Abs(g.Score-w.Score) > scoreTol {
			t.Errorf("%s: score %.12f, golden %.12f", g.Target, g.Score, w.Score)
		}
		if g.ModelLen != w.ModelLen {
			t.Errorf("%s: model length %d, golden %d", g.Target, g.ModelLen, w.ModelLen)
		}
	}
}
