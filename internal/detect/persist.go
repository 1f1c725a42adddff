package detect

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/attacks"
	"repro/internal/model"
)

// The wire format for a saved repository. Deployment (Section III-B3 of
// the paper) builds the repository once from PoCs and ships it to the
// detection hosts; persistence makes that split concrete.

type repoFile struct {
	Version int         `json:"version"`
	Entries []entryFile `json:"entries"`
}

// entryFile is one saved model: the CST-BBS fields with the family
// between the name and the timer reads. Each CST uses model.CST's JSON
// form, the one the shard wire sends too.
type entryFile struct {
	Name       string      `json:"name"`
	Family     string      `json:"family"`
	TimerReads uint64      `json:"timer_reads"`
	Seq        []model.CST `json:"seq"`
}

const repoFormatVersion = 1

// Save writes the repository as JSON. It holds the repository read lock
// for the duration, so it may run concurrently with classification.
func (r *Repository) Save(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := repoFile{Version: repoFormatVersion}
	for _, e := range r.Entries {
		ef := entryFile{Name: e.Name, Family: string(e.Family), TimerReads: e.BBS.TimerReads, Seq: e.BBS.Seq}
		if len(ef.Seq) == 0 {
			ef.Seq = nil // an empty model saves as "seq": null, empty slice or not
		}
		out.Entries = append(out.Entries, ef)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// LoadRepository reads a repository saved with Save.
func LoadRepository(r io.Reader) (*Repository, error) {
	var in repoFile
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("detect: load repository: %w", err)
	}
	if in.Version != repoFormatVersion {
		return nil, fmt.Errorf("detect: unsupported repository version %d", in.Version)
	}
	repo := &Repository{}
	for _, ef := range in.Entries {
		repo.Add(ef.Name, attacks.Family(ef.Family), &model.CSTBBS{Name: ef.Name, Seq: ef.Seq, TimerReads: ef.TimerReads})
	}
	return repo, nil
}
