package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/attacks"
	"repro/internal/benign"
	"repro/internal/detect"
	"repro/internal/isa"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// reqTarget is one program serve-repeat can send: a server-resolved spec
// or an inline source.
type reqTarget struct {
	name   string
	label  attacks.Family
	spec   string
	source string
	body   []byte // the encoded /v1/classify request
}

func newReqTarget(name string, label attacks.Family, spec, source string) (reqTarget, error) {
	t := reqTarget{name: name, label: label, spec: spec, source: source}
	ts := serve.TargetSpec{ID: name, Spec: spec, Source: source}
	if source != "" {
		ts.Name = name
	}
	body, err := json.Marshal(struct {
		Target serve.TargetSpec `json:"target"`
	}{ts})
	t.body = body
	return t, err
}

// resolve turns the target into programs the way the server does: spec
// resolution for attack:/benign: specs, isa.Parse for inline sources.
// The traced run spans it.
func (t *reqTarget) resolve(tr *tracer) (prog, victim *isa.Program, err error) {
	if t.source != "" {
		if tr != nil {
			tr.begin("isa.Parse")
			defer tr.end()
		}
		prog, err = isa.Parse(t.name, t.source)
		return prog, nil, err
	}
	kind, rest, _ := strings.Cut(t.spec, ":")
	if kind == "attack" {
		poc, err := attacks.ByName(rest, attacks.DefaultParams())
		return poc.Program, poc.Victim, err
	}
	parts := strings.Split(rest, "/")
	if len(parts) != 3 {
		return nil, nil, fmt.Errorf("bad benign spec %q", t.spec)
	}
	seed, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return nil, nil, err
	}
	prog, err = benign.Generate(benign.Spec{Kind: benign.Kind(parts[0]), Template: parts[1], Seed: seed})
	return prog, nil, err
}

// sourceTemplates holds the hand-written programs of testdata/, which
// the inline targets are parameterized variants of.
type sourceTemplates struct{ fr, benign string }

func readTemplates() (sourceTemplates, error) {
	root, err := repoRoot()
	if err != nil {
		return sourceTemplates{}, err
	}
	fr, err := os.ReadFile(filepath.Join(root, "testdata", "handwritten-fr.s"))
	if err != nil {
		return sourceTemplates{}, err
	}
	bn, err := os.ReadFile(filepath.Join(root, "testdata", "handwritten-benign.s"))
	if err != nil {
		return sourceTemplates{}, err
	}
	return sourceTemplates{fr: string(fr), benign: string(bn)}, nil
}

// replaceOnce substitutes the one occurrence of old, failing loudly if
// the template no longer has it.
func replaceOnce(src, old, repl string) (string, error) {
	if strings.Count(src, old) != 1 {
		return "", fmt.Errorf("template lost its %q line", old)
	}
	return strings.Replace(src, old, repl, 1), nil
}

// frVariant is the hand-written Flush+Reload with its monitoring rounds,
// line count and wait loop changed, and nops padding the prologue (which
// moves every block leader). Distinct parameters give distinct models.
func (st sourceTemplates) frVariant(rounds, lines, wait, nops int) (string, error) {
	s, err := replaceOnce(st.fr, "mov r7, 4 ", fmt.Sprintf("%smov r7, %d ", strings.Repeat("nop\n  ", nops), rounds))
	if err == nil {
		s, err = replaceOnce(s, "cmp r2, 12", fmt.Sprintf("cmp r2, %d", lines))
	}
	if err == nil {
		s, err = replaceOnce(s, "mov r3, 30", fmt.Sprintf("mov r3, %d", wait))
	}
	return s, err
}

// The unique-variant parameter space: rounds 3-5, lines 8-16, wait
// 16-47 and 0-15 nops. The repeated targets use rounds outside it, so no
// unique variant ever equals a repeated one.
const (
	uniqueRounds = 3
	uniqueLines  = 9
	uniqueWaits  = 32
	uniqueNops   = 16
	uniqueSpace  = uniqueRounds * uniqueLines * uniqueWaits * uniqueNops
)

func (st sourceTemplates) uniqueVariant(code int) (string, error) {
	r := code % uniqueRounds
	code /= uniqueRounds
	l := code % uniqueLines
	code /= uniqueLines
	w := code % uniqueWaits
	n := code / uniqueWaits
	return st.frVariant(3+r, 8+l, 16+w, n)
}

// repeatedTargets are the 48 targets serve-repeat's Zipf draws pick
// from, in fixed rank order (hottest first), interleaving the four
// kinds: every attack: PoC, benign: specs, and inline variants of the
// two hand-written programs.
func repeatedTargets(st sourceTemplates) ([]reqTarget, error) {
	var groups [4][]reqTarget
	add := func(g int, name string, label attacks.Family, spec, source string) error {
		t, err := newReqTarget(name, label, spec, source)
		groups[g] = append(groups[g], t)
		return err
	}
	// The PoCs go in the paper's Table II order, Flush+Reload first, then
	// the extensions. Which target is hottest decides where the median
	// falls in the mixture of per-target costs; with the heaviest
	// repeated PoC (ER-IAIK) first, the median sat in a gap between two
	// cost groups and moved 20% between runs.
	pocs := attacks.All(attacks.DefaultParams())
	for _, n := range attacks.ExtensionNames() {
		poc, err := attacks.ByName(n, attacks.DefaultParams())
		if err != nil {
			return nil, err
		}
		pocs = append(pocs, poc)
	}
	for _, poc := range pocs {
		if err := add(0, poc.Name, poc.Family, "attack:"+poc.Name, ""); err != nil {
			return nil, err
		}
	}
	for _, k := range benign.Kinds() {
		for _, tmpl := range benign.Templates(k)[:4] {
			spec := fmt.Sprintf("benign:%s/%s/7", k, tmpl)
			if err := add(1, spec, attacks.FamilyBenign, spec, ""); err != nil {
				return nil, err
			}
		}
	}
	for _, rounds := range []int{2, 6} {
		for _, lines := range []int{6, 10, 14} {
			for _, wait := range []int{20, 40} {
				src, err := st.frVariant(rounds, lines, wait, 0)
				if err != nil {
					return nil, err
				}
				name := fmt.Sprintf("fr-r%d-l%d-w%d", rounds, lines, wait)
				if err := add(2, name, attacks.FamilyFR, "", src); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, n := range []int{16, 24, 32, 40, 48, 64} {
		src, err := replaceOnce(st.benign, "cmp r1, 64", fmt.Sprintf("cmp r1, %d", n))
		if err != nil {
			return nil, err
		}
		if err := add(3, fmt.Sprintf("sum-%d", n), attacks.FamilyBenign, "", src); err != nil {
			return nil, err
		}
	}
	var out []reqTarget
	for i := 0; len(out) < 14+16+12+6; i++ {
		for g := range groups {
			if i < len(groups[g]) {
				out = append(out, groups[g][i])
			}
		}
	}
	return out, nil
}

// serverState is the in-process server and the client connections to
// it.
type serverState struct {
	srv *serve.Server
	url string
	hc  *http.Client
}

func (s *serverState) close() {
	s.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // the process is done with it either way
}

// wireVerdict is the part of the /v1/classify reply the benchmark reads.
type wireVerdict struct {
	Verdict *struct {
		Predicted string `json:"predicted"`
		Best      *struct {
			Name  string  `json:"name"`
			Score float64 `json:"score"`
		} `json:"best"`
		ModelLen int    `json:"model_len"`
		Error    string `json:"error"`
	} `json:"verdict"`
}

// classify is one unary request over a keep-alive connection.
func (s *serverState) classify(body []byte) (verdict, int, error) {
	resp, err := s.hc.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return verdict{}, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return verdict{}, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return verdict{}, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var w wireVerdict
	if err := json.Unmarshal(raw, &w); err != nil {
		return verdict{}, 0, err
	}
	switch {
	case w.Verdict == nil:
		return verdict{}, 0, fmt.Errorf("reply has no verdict")
	case w.Verdict.Error != "":
		return verdict{}, 0, fmt.Errorf("verdict error: %s", w.Verdict.Error)
	case w.Verdict.Best == nil:
		return verdict{}, 0, fmt.Errorf("verdict has no best match")
	}
	return verdict{Pred: attacks.Family(w.Verdict.Predicted), Best: w.Verdict.Best.Name, Score: w.Verdict.Best.Score}, w.Verdict.ModelLen, nil
}

func serveSetup(sz sizes, tel *telemetry.Collector) (*system, error) {
	repo, err := detect.BuildVariantRepository(sz.corpus)
	if err != nil {
		return nil, err
	}
	det := newDetector(repo, serveScan, tel)
	det.ResultCache = serveResultCache
	sys := &system{det: det}
	if sys.engineS, err = buildEngine(det); err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Detector: det, Telemetry: tel})
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := clients()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: c, MaxIdleConnsPerHost: c}}
	sys.srv = &serverState{srv: srv, url: "http://" + addr + "/v1/classify", hc: hc}
	return sys, nil
}

// runServe is serve-repeat: an in-process server over the 500-variant
// corpus with the verdict cache on, driven first in a closed loop, which
// gives the end-to-end metrics, and then open-loop up the fixed rate
// ladder, which gives the sustained rate and the latencies at the
// reference rate as layer metrics. (Open-loop latencies at a fixed rate
// amplify the box's noise: over eight seeds the p99 at the ladder's
// first step spread 22-30%, the closed loop's 10%.)
func runServe(o options) (*report, error) {
	st, err := readTemplates()
	if err != nil {
		return nil, err
	}
	repeated, err := repeatedTargets(st)
	if err != nil {
		return nil, err
	}
	var tel *telemetry.Collector
	if o.trace {
		tel = telemetry.NewCollector()
	}
	sys, setupS, err := setupSystem(o.setupRepeats, func() (*system, error) { return serveSetup(o.sizes, tel) })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	srv := sys.srv
	rep := &report{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	nr := len(repeated)

	// The traffic: a seeded sequence of target numbers, consumed in send
	// order by every phase. Repeated targets are 0..nr-1 by Zipf rank;
	// unique variant u is nr+u, numbered in order of appearance and drawn
	// from a seeded permutation of the variant space, so none repeats
	// within a run.
	rng := rand.New(rand.NewSource(o.seed))
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(nr-1))
	perm := rng.Perm(uniqueSpace)
	seq := make([]int, 1<<16)
	nu := 0
	for i := range seq {
		if rng.Float64() < serveUniqueFrac {
			seq[i] = nr + nu
			nu++
		} else {
			seq[i] = int(zipf.Uint64())
		}
	}
	uniqueTarget := func(u int) (reqTarget, error) {
		src, err := st.uniqueVariant(perm[u%uniqueSpace])
		if err != nil {
			return reqTarget{}, err
		}
		return newReqTarget(fmt.Sprintf("fr-u%d", u), attacks.FamilyFR, "", src)
	}
	var cursor atomic.Int64
	op := func(int) (int, verdict, error) {
		id := seq[int(cursor.Add(1)-1)%len(seq)]
		body := []byte(nil)
		if id < nr {
			body = repeated[id].body
		} else {
			t, err := uniqueTarget(id - nr)
			if err != nil {
				return id, verdict{}, err
			}
			body = t.body
		}
		v, _, err := srv.classify(body)
		return id, v, err
	}

	// Warm pass: every repeated target once (their reference verdicts),
	// plus a few variants outside the unique space.
	ref := make([]verdict, nr)
	errs := make([]error, nr)
	parallel(nr, func(i int) { ref[i], _, errs[i] = srv.classify(repeated[i].body) })
	extra := func(j int) (reqTarget, error) {
		src, err := st.frVariant(3+j%3, 8+(j/3)%9, 16+j/27, uniqueNops)
		if err != nil {
			return reqTarget{}, err
		}
		return newReqTarget(fmt.Sprintf("fr-x%d", j), attacks.FamilyFR, "", src)
	}
	for j := 0; j < 8; j++ {
		t, err := extra(j)
		if err != nil {
			return nil, err
		}
		if _, _, err := srv.classify(t.body); err != nil {
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}

	// Measured phase: the closed loop, then the ladder.
	m0, rt0 := tel.Snapshot(), readRuntime()
	capDur := o.dur(serveShares[0])
	capRecs := closedLoop(capDur, 1<<15, op)
	capRT := rt0.to(readRuntime())
	capStats := summarize(capRecs, capDur)
	all := append([]opRecord(nil), capRecs...)
	var si serveInfo
	for step, rate := range serveLadder {
		d := o.dur(serveShares[step+1])
		due := poissonSchedule(rand.New(rand.NewSource(o.seed*100+int64(step))), rate, d)
		recs := openLoop(due, op)
		all = append(all, recs...)
		st := stepStats(recs)
		if st.p99 <= ms(maxRateP99) && st.lag < ms(maxRateLag) {
			si.maxRate = rate
		}
		fmt.Fprintf(os.Stderr, "serve-repeat step %d: %.0f rps offered, %d requests, p50 %.2f ms, p99 %.2f ms, mean wait %.2f ms, end lag %.2f ms\n",
			step, rate, len(recs), st.p50, st.p99, st.wait, st.lag)
		if step == serveRefStep {
			si.ref = st
		}
	}
	m1 := tel.Snapshot()
	rss := peakRSSMB()

	// Oracle: every repeated target and an even sample of the unique
	// variants that were sent.
	orc := newOracle(sys.det)
	expect := map[int]verdict{}
	var sentUnique []int
	seen := map[int]bool{}
	for _, r := range all {
		if r.target >= nr && !seen[r.target] {
			seen[r.target] = true
			sentUnique = append(sentUnique, r.target-nr)
		}
	}
	sort.Ints(sentUnique)
	check := make([]reqTarget, 0, nr+serveOracleSample)
	ids := make([]int, 0, cap(check))
	for i, t := range repeated {
		check, ids = append(check, t), append(ids, i)
	}
	for _, k := range strideSelect(len(sentUnique), serveOracleSample) {
		u := sentUnique[k]
		t, err := uniqueTarget(u)
		if err != nil {
			return nil, err
		}
		check, ids = append(check, t), append(ids, nr+u)
	}
	got, err := oracleVerdicts(orc, check)
	if err != nil {
		return nil, err
	}
	for k, id := range ids {
		expect[id] = got[k]
	}
	correct := 0
	for i := range repeated {
		switch {
		case errs[i] != nil:
			rep.problem("%s: %v", repeated[i].name, errs[i])
		case !ref[i].same(expect[i]):
			rep.problem("%s: verdict %+v, oracle %+v", repeated[i].name, ref[i], expect[i])
		}
		if errs[i] == nil && ref[i].Pred == repeated[i].label {
			correct++
		}
	}
	rep.Attempted = len(all)
	for _, r := range all {
		want, ok := expect[r.target]
		switch {
		case r.err != nil:
			rep.Failed++
			rep.problem("request for target %d: %v", r.target, r.err)
		case ok && !r.v.same(want):
			rep.Failed++
			rep.problem("request for target %d: verdict %+v, oracle %+v", r.target, r.v, want)
		}
	}
	uniqueRight := 0
	for _, r := range all {
		if r.target >= nr && r.err == nil && r.v.Pred == attacks.FamilyFR {
			uniqueRight++
		}
	}

	rep.Samples = capStats.samples
	rep.Metrics = withUnits(endToEnd, map[string]float64{
		"latency_p50_ms":   capStats.p50,
		"latency_p99_ms":   capStats.p99,
		"throughput_ops_s": capStats.throughput,
		"allocs_per_op":    frac(float64(capRT.allocs), float64(len(capRecs))),
		"bytes_per_op":     frac(float64(capRT.bytes), float64(len(capRecs))),
		"peak_rss_mb":      rss,
		"setup_s":          median(setupS),
	})

	if o.trace {
		in := layerInputs{
			m0: m0, m1: m1, rt: capRT, measuredOps: len(all), engineBuildS: sys.engineS,
			accuracy: frac(float64(correct+uniqueRight), float64(nr+len(sentUnique))),
			serve:    si,
		}
		if err := traceServe(o, sys, repeated, ref, extra, orc, &in, rep); err != nil {
			return nil, err
		}
		rep.PerLayer = withUnits(perLayer, layerMetrics(in))
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0
	return rep, nil
}

// stepStats summarizes an open-loop step over all its requests, timed
// from when each was due: p50 and p99, the mean wait for a free
// connection, and the end-of-step lag (how late the last-due request was
// sent, the generator's backlog when the step ended).
func stepStats(recs []opRecord) ladderStep {
	var st ladderStep
	if len(recs) == 0 {
		return st
	}
	lats := make([]float64, len(recs))
	last := time.Duration(-1)
	for i, r := range recs {
		lats[i] = ms(r.lat)
		st.wait += ms(r.wait)
		if due := r.end - r.lat; due > last {
			last, st.lag = due, ms(r.wait)
		}
	}
	lats = sorted(lats)
	st.p50, st.p99 = quantile(lats, 0.5), quantile(lats, 0.99)
	st.wait /= float64(len(recs))
	return st
}

// oracleVerdicts models each target the way the server does and scores
// it with the serial exact scan.
func oracleVerdicts(orc *oracle, ts []reqTarget) ([]verdict, error) {
	out := make([]verdict, len(ts))
	errs := make([]error, len(ts))
	parallel(len(ts), func(i int) {
		prog, victim, err := ts[i].resolve(nil)
		if err == nil {
			var m *model.Model
			if m, err = model.Build(prog, victim, orc.det.ModelCfg); err == nil {
				out[i] = orc.verdict(m.BBS)
			}
		}
		errs[i] = err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle for %s: %w", ts[i].name, err)
		}
	}
	return out, nil
}

// traceServe decomposes serve-repeat's requests from a single client:
// the client-side resolution (spec resolution or isa.Parse) and the
// HTTP round trip. The server's own stages come from its telemetry. The
// traced set is the repeated targets, which hit the verdict cache, then
// half as many fresh variants, which miss it on the first pass. The
// untraced baseline is the repeated targets alone, so tracing overhead
// compares hits with hits.
func traceServe(o options, sys *system, repeated []reqTarget, ref []verdict, extra func(int) (reqTarget, error), orc *oracle, in *layerInputs, rep *report) error {
	fresh := make([]reqTarget, len(repeated)/2)
	for j := range fresh {
		t, err := extra(100 + j)
		if err != nil {
			return err
		}
		fresh[j] = t
	}
	var base time.Duration
	for _, t := range repeated {
		t0 := time.Now()
		_, _, _ = sys.srv.classify(t.body) // verdicts were checked in the measured phase
		base += time.Since(t0)
	}
	in.untracedOp = base / time.Duration(len(repeated))
	freshWant, err := oracleVerdicts(orc, fresh)
	if err != nil {
		return err
	}
	set := append(append([]reqTarget(nil), repeated...), fresh...)
	want := append(append([]verdict(nil), ref...), freshWant...)

	in.d0 = sys.det.Telemetry.Snapshot()
	tr := newTracer()
	for pass := 0; pass < 2; pass++ {
		for i := range set {
			t := &set[i]
			tr.beginOp()
			tr.begin("serve.resolve")
			_, _, err := t.resolve(tr)
			tr.end()
			var v verdict
			var modelLen int
			if err == nil {
				tr.begin("serve.request")
				v, modelLen, err = sys.srv.classify(t.body)
				tr.end()
			}
			tr.end()
			in.counts.modelLen += modelLen
			rep.Attempted++
			switch {
			case err != nil:
				rep.Failed++
				rep.problem("traced %s: %v", t.name, err)
			case !v.same(want[i]):
				rep.Failed++
				rep.problem("traced %s: verdict %+v, expected %+v", t.name, v, want[i])
			}
		}
	}
	in.d1 = sys.det.Telemetry.Snapshot()
	in.spans = summarizeSpans(tr.spans, len(repeated))
	in.spans.writeTable(os.Stderr, o.workload)
	if o.spans != "" {
		return tr.write(o.spans)
	}
	return nil
}
