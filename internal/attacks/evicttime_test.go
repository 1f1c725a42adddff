package attacks

import (
	"testing"

	"repro/internal/exec"
)

func TestEvictTimeRecoversSecretSet(t *testing.T) {
	p := DefaultParams()
	poc := EvictTime(p)
	if err := poc.Program.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := exec.NewMachine(exec.DefaultConfig(), poc.Program, poc.Victim)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Run()
	if !tr.Halted {
		t.Fatal("Evict+Time did not halt")
	}
	base := segAddr(t, poc.Program, "slowdown")
	got, v := histogramArgmax(m, base, p.Lines)
	if got != p.Secret || v == 0 {
		for i := 0; i < p.Lines; i++ {
			t.Logf("set %2d: slowdown=%d", i, m.Memory().Load64(base+uint64(i*8)))
		}
		t.Errorf("Evict+Time recovered set %d (slowdown %d), want %d", got, v, p.Secret)
	}
}

func TestEvictTimeVictimPublishesProgress(t *testing.T) {
	p := DefaultParams()
	victim := EvictTimeVictim(p)
	// A quiet attacker: the counter must advance.
	qb := quietVictim() // reuse the spinning program as the "attacker"
	cfg := exec.DefaultConfig()
	cfg.MaxRetired = 5000
	m, err := exec.NewMachine(cfg, qb, victim)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	if m.Memory().Load64(evictTimeCounter) == 0 {
		t.Error("victim never published progress")
	}
}
