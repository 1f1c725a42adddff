package attacks

import "repro/internal/isa"

// SharedVictim builds the victim the Flush+Reload family spies on: an
// endless loop whose memory accesses depend on its secret — each
// iteration touches shared line (secret) plus a small amount of private
// state, like a table-based crypto routine indexing its S-box with key
// material.
func SharedVictim(p Params) *isa.Program {
	p = p.withDefaults()
	b := isa.NewBuilder("victim-shared", VictimCodeBase)
	b.SetDataBase(VictimDataBase)
	priv := b.Bytes("vpriv", 512, false)

	secretLine := SharedBase + uint64(p.Secret)*LineSize
	b.Mov(isa.R(isa.R3), isa.Imm(0)) // iteration counter
	b.Label("work")
	// Secret-dependent shared access.
	b.Mov(isa.R(isa.R1), isa.Imm(int64(secretLine))).
		Mov(isa.R(isa.R0), isa.Mem(isa.R1, 0))
	// Private bookkeeping.
	b.Mov(isa.R(isa.R2), isa.R(isa.R3)).
		And(isa.R(isa.R2), isa.Imm(7)).
		Lea(isa.R4, isa.MemIdx(isa.RegNone, isa.R2, 8, int64(priv))).
		Mov(isa.R(isa.R5), isa.Mem(isa.R4, 0)).
		Add(isa.R(isa.R5), isa.Imm(1)).
		Mov(isa.Mem(isa.R4, 0), isa.R(isa.R5))
	b.Inc(isa.R(isa.R3)).
		Jmp("work")
	return b.MustBuild()
}

// SetVictim builds the victim the Prime+Probe family spies on: it has no
// shared memory with the attacker; instead its secret selects which LLC
// set its private working data maps to, evicting the attacker's primed
// lines from exactly that set.
func SetVictim(p Params) *isa.Program {
	p = p.withDefaults()
	b := isa.NewBuilder("victim-set", VictimCodeBase)
	b.SetDataBase(VictimDataBase)
	priv := b.Bytes("vpriv", 512, false)

	// The victim's secret-dependent buffer: enough lines in the target
	// set to displace primed ways. The attacker monitors sets starting at
	// MonitoredSetOffset, so the victim's secret set lives there too.
	victimBuf := uint64(0x3800_0000)
	secretSetAddr := victimBuf + uint64(MonitoredSetOffset+p.Secret)*LineSize

	b.Mov(isa.R(isa.R3), isa.Imm(0))
	b.Label("work")
	// Touch several lines of the secret's LLC set (same set, different
	// tags, stride = EvictionStride).
	b.Mov(isa.R(isa.R2), isa.Imm(0)).
		Label("touch").
		Mov(isa.R(isa.R1), isa.R(isa.R2)).
		Mul(isa.R(isa.R1), isa.Imm(int64(EvictionStride))).
		Add(isa.R(isa.R1), isa.Imm(int64(secretSetAddr))).
		Mov(isa.R(isa.R0), isa.Mem(isa.R1, 0)).
		Inc(isa.R(isa.R2)).
		Cmp(isa.R(isa.R2), isa.Imm(4)).
		Jl("touch")
	// Private bookkeeping.
	b.Mov(isa.R(isa.R2), isa.R(isa.R3)).
		And(isa.R(isa.R2), isa.Imm(7)).
		Lea(isa.R4, isa.MemIdx(isa.RegNone, isa.R2, 8, int64(priv))).
		Mov(isa.R(isa.R5), isa.Mem(isa.R4, 0)).
		Inc(isa.R(isa.R5)).
		Mov(isa.Mem(isa.R4, 0), isa.R(isa.R5))
	b.Inc(isa.R(isa.R3)).
		Jmp("work")
	return b.MustBuild()
}
