package detect

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/attacks"
	"repro/internal/cache"
	"repro/internal/model"
)

func TestRepositorySaveLoadRoundtrip(t *testing.T) {
	orig := repo(t)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Entries) != len(orig.Entries) {
		t.Fatalf("entries %d -> %d", len(orig.Entries), len(loaded.Entries))
	}
	for i, e := range orig.Entries {
		l := loaded.Entries[i]
		if l.Name != e.Name || l.Family != e.Family {
			t.Errorf("entry %d identity changed: %s/%s", i, l.Name, l.Family)
		}
		if l.BBS.Len() != e.BBS.Len() {
			t.Fatalf("entry %d length %d -> %d", i, e.BBS.Len(), l.BBS.Len())
		}
		for j := range e.BBS.Seq {
			a, b := e.BBS.Seq[j], l.BBS.Seq[j]
			if a.Before != b.Before || a.After != b.After || a.Leader != b.Leader ||
				a.FirstCycle != b.FirstCycle || a.HPCValue != b.HPCValue {
				t.Fatalf("entry %d cst %d changed", i, j)
			}
			if strings.Join(a.NormInsns, ";") != strings.Join(b.NormInsns, ";") {
				t.Fatalf("entry %d cst %d instructions changed", i, j)
			}
		}
	}
	// A detector over the loaded repository behaves identically.
	d := NewDetector(loaded)
	poc := attacks.FlushReloadNepoche(attacks.DefaultParams())
	res, _, err := d.Classify(poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted != attacks.FamilyFR {
		t.Errorf("loaded repository misclassifies: %s", res.Predicted)
	}
}

// TestRepositorySaveFormat pins the saved-repository bytes to files
// written by an earlier Save: the default four-PoC repository (what
// `scaguard repo-save` writes) and a hand-built one with the edge cases
// of the format — an empty model with a nil and with a non-nil empty
// sequence, nil and empty instruction lists, HTML-escaped names and
// extreme integers and floats. Both the in-memory repository and the
// file loaded back must save byte-identically.
func TestRepositorySaveFormat(t *testing.T) {
	var pocs []attacks.PoC
	for _, name := range []string{"FR-IAIK", "PP-IAIK", "S-FR-Idea", "S-PP-Trippel"} {
		poc, err := attacks.ByName(name, attacks.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		pocs = append(pocs, poc)
	}
	def, err := BuildRepository(pocs, model.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	edge := &Repository{}
	edge.Add("empty <model>", "Flush+Reload", &model.CSTBBS{Name: "empty <model>"})
	edge.Add("nonnil-empty", "Evict+Reload", &model.CSTBBS{Name: "nonnil-empty", Seq: []model.CST{}})
	edge.Add("edge & co", "Prime+Probe", &model.CSTBBS{Name: "edge & co", TimerReads: 3, Seq: []model.CST{
		{Leader: 0x1000, Before: cache.State{AO: 0.1, IO: 1e-7}, After: cache.State{AO: 12345678.9, IO: 0}, FirstCycle: 7},
		{Leader: 0x1010, NormInsns: []string{}, HPCValue: 1 << 63},
		{Leader: 0x1020, Before: cache.State{AO: 1.0 / 3}, NormInsns: []string{"mov r0, [m0]", "cmp r0, <4>"}, FirstCycle: 1<<64 - 1},
	}})

	save := func(r *Repository) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := r.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, tc := range []struct {
		file string
		repo *Repository
	}{{"testdata/repository_default.json", def}, {"testdata/repository_edge.json", edge}} {
		want, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		if got := save(tc.repo); !bytes.Equal(got, want) {
			t.Errorf("%s: Save wrote different bytes:\n%s", tc.file, got)
		}
		loaded, err := LoadRepository(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		if got := save(loaded); !bytes.Equal(got, want) {
			t.Errorf("%s: load then Save wrote different bytes:\n%s", tc.file, got)
		}
	}
}

func TestLoadRepositoryErrors(t *testing.T) {
	if _, err := LoadRepository(strings.NewReader("not json")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := LoadRepository(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("unknown version must fail")
	}
}
