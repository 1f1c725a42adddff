package model

import (
	"encoding/json"

	"repro/internal/cache"
)

// cstJSON is the JSON form of a CST: the two cache states flatten into
// four keys. It is the one encoding of a CST-BBS on disk (the saved
// repository, internal/detect) and on the shard wire (internal/shard).
type cstJSON struct {
	Leader     uint64   `json:"leader"`
	BeforeAO   float64  `json:"before_ao"`
	BeforeIO   float64  `json:"before_io"`
	AfterAO    float64  `json:"after_ao"`
	AfterIO    float64  `json:"after_io"`
	NormInsns  []string `json:"norm_insns"`
	FirstCycle uint64   `json:"first_cycle"`
	HPCValue   uint64   `json:"hpc_value"`
}

// MarshalJSON writes c in its JSON form. encoding/json prints the
// shortest decimal that parses back to the same float64, so occupancies
// round-trip exactly.
func (c CST) MarshalJSON() ([]byte, error) {
	return json.Marshal(cstJSON{
		Leader:     c.Leader,
		BeforeAO:   c.Before.AO,
		BeforeIO:   c.Before.IO,
		AfterAO:    c.After.AO,
		AfterIO:    c.After.IO,
		NormInsns:  c.NormInsns,
		FirstCycle: c.FirstCycle,
		HPCValue:   c.HPCValue,
	})
}

// UnmarshalJSON reads the form MarshalJSON writes.
func (c *CST) UnmarshalJSON(b []byte) error {
	var j cstJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*c = CST{
		Leader:     j.Leader,
		Before:     cache.State{AO: j.BeforeAO, IO: j.BeforeIO},
		After:      cache.State{AO: j.AfterAO, IO: j.AfterIO},
		NormInsns:  j.NormInsns,
		FirstCycle: j.FirstCycle,
		HPCValue:   j.HPCValue,
	}
	return nil
}
