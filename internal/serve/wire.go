package serve

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/detect"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/stream"
)

// The HTTP/JSON wire format of the detection service. Scores are finite
// float64s and encoding/json emits the shortest decimal that
// round-trips exactly, so a verdict read back from the wire is
// bit-identical to the detect.Result it was built from — the end-to-end
// tests compare with ==, not a tolerance (the same argument
// internal/shard's wire format makes).

// TargetSpec names one program to classify. Exactly one of Spec or
// Source must be set.
type TargetSpec struct {
	// ID labels the target in its verdict; it defaults to Spec, then
	// Name, then a positional label.
	ID string `json:"id,omitempty"`
	// Spec is a server-resolved target in the CLI's spec syntax:
	// "attack:NAME" (canonical or extension PoC) or
	// "benign:kind/template/seed" (generated benign program). The
	// CLI-only "file:" form is rejected — the server never reads its
	// local filesystem on a client's behalf.
	Spec string `json:"spec,omitempty"`
	// Source is an inline program in the textual assembly syntax
	// (isa.Parse), assembled server-side under the parser's resource
	// limits. Name names the program; it defaults to ID.
	Name   string `json:"name,omitempty"`
	Source string `json:"source,omitempty"`
}

// resolve turns the spec into a program plus its victim (attack PoCs
// carry one; benign and inline programs do not).
func (t TargetSpec) resolve() (prog, victim *isa.Program, err error) {
	switch {
	case t.Source != "" && t.Spec != "":
		return nil, nil, errors.New("target sets both spec and source")
	case t.Source != "":
		name := t.Name
		if name == "" {
			name = t.ID
		}
		if name == "" {
			name = "inline"
		}
		prog, err = isa.Parse(name, t.Source)
		return prog, nil, err
	case t.Spec != "":
		return resolveSpec(t.Spec)
	}
	return nil, nil, errors.New("target needs a spec or an inline source")
}

// target resolves the spec at request position pos into the stream
// target every endpoint classifies; a resolution failure travels as
// the target's Err, so it keeps its position in ordered output.
func (t TargetSpec) target(pos int) stream.Target {
	st := stream.Target{ID: t.label(pos)}
	var err error
	if st.Program, st.Victim, err = t.resolve(); err != nil {
		st.Err = fmt.Errorf("resolve: %w", err)
	}
	return st
}

// label is the identity the target's verdict carries.
func (t TargetSpec) label(pos int) string {
	switch {
	case t.ID != "":
		return t.ID
	case t.Spec != "":
		return t.Spec
	case t.Name != "":
		return t.Name
	}
	return "target[" + strconv.Itoa(pos) + "]"
}

// resolveSpec resolves the "kind:value" spec syntax shared with the
// CLI's classify -stream mode, minus the file: form.
func resolveSpec(spec string) (*isa.Program, *isa.Program, error) {
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, nil, fmt.Errorf("target spec %q wants kind:value (attack:, benign:)", spec)
	}
	switch kind {
	case "attack":
		poc, err := attacks.ByName(rest, attacks.DefaultParams())
		if err != nil {
			return nil, nil, err
		}
		return poc.Program, poc.Victim, nil
	case "benign":
		parts := strings.Split(rest, "/")
		if len(parts) != 3 {
			return nil, nil, fmt.Errorf("benign spec wants kind/template/seed, got %q", rest)
		}
		seed, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad seed in %q: %v", rest, err)
		}
		prog, err := benign.Generate(benign.Spec{Kind: benign.Kind(parts[0]), Template: parts[1], Seed: seed})
		return prog, nil, err
	case "file":
		return nil, nil, fmt.Errorf("file: specs are CLI-only; send the program inline via source")
	}
	return nil, nil, fmt.Errorf("unknown target spec kind %q (want attack:, benign:)", kind)
}

// classifyRequest is POST /v1/classify: one target (unary reply form)
// or a batch (array reply form). Setting both is rejected.
type classifyRequest struct {
	Target  *TargetSpec  `json:"target,omitempty"`
	Targets []TargetSpec `json:"targets,omitempty"`
}

// WireMatch mirrors detect.Match.
type WireMatch struct {
	Name   string  `json:"name"`
	Family string  `json:"family"`
	Score  float64 `json:"score"`
	Pruned bool    `json:"pruned,omitempty"`
}

// Verdict is one target's classification outcome. Error is the
// target's failure (resolution, modeling, scanning — one target's
// failure never fails the request); Partial marks a verdict degraded
// to the surviving shards of a sharded repository. On a mode=window
// stream, Window annotates a per-window verdict line and Summary marks
// the target's final summary line (see docs/WINDOWING.md).
type Verdict struct {
	ID        string             `json:"id"`
	Predicted string             `json:"predicted,omitempty"`
	Best      *WireMatch         `json:"best,omitempty"`
	Matches   []WireMatch        `json:"matches,omitempty"`
	ModelLen  int                `json:"model_len,omitempty"`
	Partial   bool               `json:"partial,omitempty"`
	Error     string             `json:"error,omitempty"`
	Window    *WireWindow        `json:"window,omitempty"`
	Summary   *WireWindowSummary `json:"window_summary,omitempty"`
}

// WireWindow annotates one per-window verdict line of a mode=window
// stream: the half-open cycle interval the verdict covers, how many
// log events fell in it, and — for windows that never reached the
// similarity comparison — the benign-by-construction reason
// (quiet-window, quiet-gap, model-too-short, no-timer-reads).
type WireWindow struct {
	Index    int    `json:"index"`
	Start    uint64 `json:"start"`
	End      uint64 `json:"end"`
	Events   int    `json:"events"`
	ModelLen int    `json:"model_len,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// WireWindowSummary is the final line of one target's windowed run:
// the window counts, whether anything malicious was flagged, and the
// latency-to-detection metric when it was. The carrying Verdict's
// Predicted/Best are the aggregate verdict (the highest-scoring
// window's result).
type WireWindowSummary struct {
	Windows            int    `json:"windows"`
	Hits               int    `json:"hits"`
	Quiet              int    `json:"quiet"`
	Errors             int    `json:"errors,omitempty"`
	Detected           bool   `json:"detected"`
	DetectionCycle     uint64 `json:"detection_cycle,omitempty"`
	LatencyToDetection uint64 `json:"latency_to_detection,omitempty"`
	FinalWindow        int    `json:"final_window"`
}

// classifyResponse is the /v1/classify reply: Verdict for the unary
// form, Verdicts (positionally matching the request) for the batch
// form.
type classifyResponse struct {
	Verdict  *Verdict  `json:"verdict,omitempty"`
	Verdicts []Verdict `json:"verdicts,omitempty"`
}

// errorResponse is any non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// healthzResponse is GET /healthz. Status is "ok" (200) or "draining"
// (503, so load balancers stop routing here during shutdown).
type healthzResponse struct {
	Status   string `json:"status"`
	Entries  int    `json:"entries"`
	Version  uint64 `json:"version"`
	Draining bool   `json:"draining"`
}

// reloadRequest is POST /reload. Path optionally overrides the
// server's configured repository source; empty reloads the default.
type reloadRequest struct {
	Path string `json:"path,omitempty"`
}

// reloadResponse reports the repository after a successful swap.
type reloadResponse struct {
	Entries int    `json:"entries"`
	Version uint64 `json:"version"`
}

// verdictFor converts one classification outcome to the wire. A
// *shard.PartialError is a degraded success (the result covers the
// surviving shards); any other error is the target's failure.
func verdictFor(id string, res detect.Result, m *model.Model, err error) Verdict {
	v := Verdict{ID: id}
	if err != nil {
		var pe *shard.PartialError
		if !errors.As(err, &pe) {
			v.Error = err.Error()
			return v
		}
		v.Partial = true
	}
	v.Predicted = string(res.Predicted)
	best := WireMatch{Name: res.Best.Name, Family: string(res.Best.Family), Score: res.Best.Score, Pruned: res.Best.Pruned}
	v.Best = &best
	v.Matches = make([]WireMatch, len(res.Matches))
	for i, mt := range res.Matches {
		v.Matches[i] = WireMatch{Name: mt.Name, Family: string(mt.Family), Score: mt.Score, Pruned: mt.Pruned}
	}
	if m != nil {
		v.ModelLen = m.BBS.Len()
	}
	return v
}
