package scaguard

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
)

// sharedDetector caches the default detector across tests (repository
// construction runs four full simulations).
var sharedDetector *Detector

func detector(t *testing.T) *Detector {
	t.Helper()
	if sharedDetector == nil {
		d, err := NewDetector()
		if err != nil {
			t.Fatal(err)
		}
		sharedDetector = d
	}
	return sharedDetector
}

func TestFacadeEndToEnd(t *testing.T) {
	d := detector(t)
	// An attack variant the repository has never seen.
	poc := MustAttack("FR-Nepoche")
	res, m, err := d.Classify(poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.BBS.Len() == 0 {
		t.Fatal("no model built")
	}
	if res.Predicted != FamilyFlushReload {
		t.Errorf("FR-Nepoche classified as %s", res.Predicted)
	}
	// A benign program.
	prog, err := GenerateBenign("leetcode", "kadane", 3)
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := d.Classify(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Predicted != FamilyBenign {
		t.Errorf("kadane classified as %s (%.2f)", res2.Predicted, res2.Best.Score)
	}
}

func TestFacadeBuildModelAndScore(t *testing.T) {
	a := MustAttack("FR-IAIK")
	b := MustAttack("ER-IAIK")
	ma, err := BuildModel(a.Program, a.Victim)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := BuildModel(b.Program, b.Victim)
	if err != nil {
		t.Fatal(err)
	}
	s := Score(ma.BBS, mb.BBS)
	if s < DefaultThreshold {
		t.Errorf("FR vs ER score %.2f below threshold", s)
	}
	if self := Score(ma.BBS, ma.BBS); self != 1 {
		t.Errorf("self score = %v", self)
	}
}

func TestFacadeCatalogs(t *testing.T) {
	if len(AttackNames()) != 11 {
		t.Errorf("attack names = %v", AttackNames())
	}
	if len(Families()) != 4 {
		t.Error("four families expected")
	}
	if len(BenignKinds()) != 4 {
		t.Error("four benign kinds expected")
	}
	if len(BenignTemplates("crypto")) == 0 {
		t.Error("crypto templates missing")
	}
	if _, err := Attack("nope"); err == nil {
		t.Error("unknown attack must fail")
	}
	if _, err := GenerateBenign("nope", "x", 1); err == nil {
		t.Error("unknown benign kind must fail")
	}
}

func TestFacadeVariants(t *testing.T) {
	poc := MustAttack("PP-IAIK")
	mut, err := MutateVariant(poc.Program, 5)
	if err != nil {
		t.Fatal(err)
	}
	obf, err := ObfuscateVariant(poc.Program, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(obf.Insns) <= len(mut.Insns) {
		t.Error("obfuscation should grow the program more than light mutation")
	}
	// The obfuscated variant is still detected.
	d := detector(t)
	res, _, err := d.Classify(obf, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted == FamilyBenign {
		t.Errorf("obfuscated PP classified benign (%.2f)", res.Best.Score)
	}
}

func TestFacadeDataset(t *testing.T) {
	ds, err := StandardDataset(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 15 {
		t.Errorf("dataset size = %d", ds.Len())
	}
}

func TestFacadeRandomBenign(t *testing.T) {
	p, err := RandomBenign("server", 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNewDetectorFromPoCs(t *testing.T) {
	d, err := NewDetectorFromPoCs([]PoC{MustAttack("FF-IAIK")})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Repo.Entries) != 1 {
		t.Error("repository size wrong")
	}
}

// A user-authored assembly program goes through the full pipeline: a
// hand-written Flush+Reload in text form classifies as FR-F; a
// hand-written compute kernel stays benign.
func TestParseProgramEndToEnd(t *testing.T) {
	src := `
	; hand-written flush+reload against a shared library page
	.data shared 1024 shared @0x20000000
	.data hits 128

	  mov r7, 4          ; rounds
	round:
	  mov r2, 0          ; line index
	lines:
	  mov r1, r2
	  shl r1, 6
	  add r1, $shared
	  clflush [r1]
	  mov r3, 30
	wait:
	  dec r3
	  jne wait
	  rdtscp r4
	  mov r0, [r1]
	  rdtscp r5
	  sub r5, r4
	  cmp r5, 100
	  jae miss
	  lea r6, [hits+r2*8]
	  mov r8, [r6]
	  inc r8
	  mov [r6], r8
	miss:
	  inc r2
	  cmp r2, 12
	  jl lines
	  dec r7
	  jne round
	  hlt
	`
	prog, err := ParseProgram("hand-fr", src)
	if err != nil {
		t.Fatal(err)
	}
	d := detector(t)
	victim := MustAttack("FR-IAIK").Victim // standard shared-memory victim
	res, _, err := d.Classify(prog, victim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted != FamilyFlushReload {
		t.Errorf("hand-written FR classified %s (best %s %.2f)",
			res.Predicted, res.Best.Name, res.Best.Score)
	}

	benignSrc := `
	.data buf 512
	  mov r0, 0
	  mov r1, 0
	sum:
	  mov r2, [buf+r1*8]
	  add r0, r2
	  inc r1
	  cmp r1, 64
	  jl sum
	  hlt
	`
	bp, err := ParseProgram("hand-benign", benignSrc)
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := d.Classify(bp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Predicted != FamilyBenign {
		t.Errorf("hand-written kernel classified %s", res2.Predicted)
	}
}

func TestFacadeRepositoryPersistence(t *testing.T) {
	d := detector(t)
	var buf bytes.Buffer
	if err := SaveRepository(d.Repo, &buf); err != nil {
		t.Fatal(err)
	}
	repo, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDetectorFromRepository(repo)
	poc := MustAttack("FF-IAIK")
	res, _, err := d2.Classify(poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted != FamilyFlushReload {
		t.Errorf("loaded repo classifies FF as %s", res.Predicted)
	}
}

func TestMustAttackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAttack must panic on unknown names")
		}
	}()
	MustAttack("definitely-not-a-poc")
}

// The shipped sample programs must keep assembling and classifying as
// documented in their comments.
func TestShippedTestdata(t *testing.T) {
	d := detector(t)
	cases := []struct {
		file string
		want Family
	}{
		{"testdata/handwritten-fr.s", FamilyFlushReload},
		{"testdata/handwritten-benign.s", FamilyBenign},
	}
	for _, c := range cases {
		src, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ParseProgram(c.file, string(src))
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		var victim *Program
		if c.want != FamilyBenign {
			victim = MustAttack("FR-IAIK").Victim
		}
		res, _, err := d.Classify(prog, victim)
		if err != nil {
			t.Fatal(err)
		}
		if res.Predicted != c.want {
			t.Errorf("%s: classified %s, want %s", c.file, res.Predicted, c.want)
		}
	}
}

// TestCheckShardFleetRejectsRotatedRepository: the startup handshake
// compares content, not only entry counts, so it catches shard servers
// started over a different repository file that happens to agree on
// every name, family and count — the default repository with every
// model rotated by one entry. A fleet of such servers has no healthy
// replica; paired with a good replica per partition, the fleet starts
// with the rotated replicas named unhealthy.
func TestCheckShardFleetRejectsRotatedRepository(t *testing.T) {
	repo := detector(t).Repo
	rotated := &Repository{}
	for i, e := range repo.Entries {
		bbs := *repo.Entries[(i+1)%len(repo.Entries)].BBS
		bbs.Name = e.Name
		rotated.Add(e.Name, e.Family, &bbs)
	}
	good := shardFleet(t, repo, 2, ShardServerConfig{})
	stale := shardFleet(t, rotated, 2, ShardServerConfig{})
	ctx := context.Background()

	if unhealthy, err := CheckShardFleet(ctx, repo, good); err != nil || len(unhealthy) != 0 {
		t.Fatalf("good fleet: unhealthy %v, err %v", unhealthy, err)
	}
	unhealthy, err := CheckShardFleet(ctx, repo, stale)
	if err == nil {
		t.Fatalf("rotated fleet passed the handshake (unhealthy %v)", unhealthy)
	}
	mixed := []string{good[0] + "|" + stale[0], good[1] + "|" + stale[1]}
	unhealthy, err = CheckShardFleet(ctx, repo, mixed)
	if err != nil {
		t.Fatalf("one good replica per partition: %v", err)
	}
	if fmt.Sprint(unhealthy) != fmt.Sprint(stale) {
		t.Errorf("unhealthy %v, want the rotated replicas %v", unhealthy, stale)
	}
}
