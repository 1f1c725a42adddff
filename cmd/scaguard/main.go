// Command scaguard is the command-line front end of the SCAGuard
// reproduction: it models programs, compares behavior models and
// classifies targets against the canonical attack repository.
//
// Usage:
//
//	scaguard list
//	scaguard model -target FR-IAIK [-disasm]
//	scaguard compare -a FR-IAIK -b PP-IAIK
//	scaguard classify -target ER-IAIK
//	scaguard classify -benign crypto/aes-ttable/7
//	scaguard classify -target FR-IAIK -obfuscate 3
//	scaguard classify -target ER-IAIK -fast -workers 4
//	scaguard classify -target FR-Mastik -fast -stats
//	scaguard classify -target FR-Mastik -metrics-addr :8080
//	scaguard classify -target FR-Mastik -timeout 2s
//	scaguard classify -target ER-IAIK -result-cache 64
//	scaguard classify -target ER-IAIK -fast -index
//	scaguard shard-serve -shards 2 -shard-index 0 -addr :9101
//	scaguard classify -target ER-IAIK -shard-addrs 127.0.0.1:9101,127.0.0.1:9102
//	scaguard classify -target ER-IAIK -shard-addrs '127.0.0.1:9101|127.0.0.1:9111,127.0.0.1:9102|127.0.0.1:9112'
//	printf 'attack:FR-IAIK\nbenign:crypto/aes-ttable/7\n' | scaguard classify -stream
//	scaguard watch -target FR-IAIK
//	scaguard watch -target S-PP-Trippel -window 8192 -stride 4096 -fast -index
//
// The |-separated form names replicas: two shard-serve processes with
// the same -shards/-shard-index serve the same partition, and scans fail
// over between them (docs/ROBUSTNESS.md).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	scaguard "repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "model":
		err = cmdModel(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "classify":
		err = cmdClassify(os.Args[2:])
	case "repo-save":
		err = cmdRepoSave(os.Args[2:])
	case "shard-serve":
		err = cmdShardServe(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scaguard:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: scaguard <command> [flags]

commands:
  list         list canonical attack PoCs and benign templates
  model        build and summarize the behavior model of a program
  compare      similarity score between two programs' models
  classify     classify a target against the default repository
  repo-save    build the default repository and write it as JSON
  shard-serve  host one shard of the repository over HTTP for
               classify -shard-addrs clients (see docs/SHARDING.md)
  serve        long-lived detection service: classify requests from
               many concurrent clients over HTTP/JSON, with admission
               control, hot reload and graceful drain
               (see docs/SERVING.md)
  watch        online sliding-window detection: run the target and
               stream per-window verdicts as it executes — an
               in-flight attack is flagged mid-trace
               (see docs/WINDOWING.md)`)
}

func cmdList() error {
	fmt.Println("Attack PoCs (Table II):")
	for _, n := range scaguard.AttackNames() {
		poc := scaguard.MustAttack(n)
		fmt.Printf("  %-14s family=%-5s insns=%d\n", n, poc.Family, len(poc.Program.Insns))
	}
	fmt.Println("\nExtension PoCs (beyond the paper):")
	for _, n := range scaguard.ExtensionNames() {
		poc := scaguard.MustAttack(n)
		fmt.Printf("  %-14s family=%-5s insns=%d\n", n, poc.Family, len(poc.Program.Insns))
	}
	fmt.Println("\nBenign templates (Table III):")
	for _, kind := range scaguard.BenignKinds() {
		fmt.Printf("  %s: %s\n", kind, strings.Join(scaguard.BenignTemplates(kind), ", "))
	}
	return nil
}

// flagErrors accumulates numeric-knob validation failures after a flag
// set parses, so one bad invocation reports every problem at once. The
// flag package only rejects syntactically unparsable values; a
// semantically nonsensical one (-workers -4, -index-clusters -1) would
// otherwise flow into the engine and fail far from the flag that
// caused it. Knobs where a negative value is meaningful — the
// -mutate/-obfuscate seed sentinels, -breaker-threshold's "negative
// disables breaking" — are deliberately not checked.
type flagErrors struct{ problems []string }

func (fe *flagErrors) add(format string, args ...any) {
	fe.problems = append(fe.problems, fmt.Sprintf(format, args...))
}

func (fe *flagErrors) nonNegative(name string, v int) {
	if v < 0 {
		fe.add("-%s must be >= 0, got %d", name, v)
	}
}

func (fe *flagErrors) atLeast(name string, v, min int) {
	if v < min {
		fe.add("-%s must be >= %d, got %d", name, min, v)
	}
}

func (fe *flagErrors) nonNegativeDuration(name string, v time.Duration) {
	if v < 0 {
		fe.add("-%s must be >= 0, got %s", name, v)
	}
}

func (fe *flagErrors) nonNegativeFloat(name string, v float64) {
	if v < 0 {
		fe.add("-%s must be >= 0, got %g", name, v)
	}
}

// err collapses the accumulated problems into one error, nil when the
// flags were clean.
func (fe *flagErrors) err() error {
	if len(fe.problems) == 0 {
		return nil
	}
	return fmt.Errorf("invalid flag value(s): %s", strings.Join(fe.problems, "; "))
}

// targetFlags holds the -target/-benign/-file/-mutate/-obfuscate flag
// values; resolve turns them into a program plus its victim after the
// flag set has been parsed.
type targetFlags struct {
	target, benignSpec, file  *string
	mutateSeed, obfuscateSeed *int64
	disasm                    *bool
}

func registerTargetFlags(fs *flag.FlagSet) *targetFlags {
	return &targetFlags{
		target:        fs.String("target", "", "canonical attack PoC name"),
		benignSpec:    fs.String("benign", "", "benign program kind/template/seed"),
		file:          fs.String("file", "", "assemble a textual program from this file"),
		mutateSeed:    fs.Int64("mutate", -1, "apply light mutation with this seed"),
		obfuscateSeed: fs.Int64("obfuscate", -1, "apply polymorphic obfuscation with this seed"),
		disasm:        fs.Bool("disasm", false, "print the target's disassembly"),
	}
}

func (tf *targetFlags) resolve() (*scaguard.Program, *scaguard.Program, error) {
	var prog, victim *scaguard.Program
	switch {
	case *tf.file != "":
		p, v, err := loadSpec("file:" + *tf.file)
		if err != nil {
			return nil, nil, err
		}
		prog, victim = p, v
	case *tf.target != "":
		poc, err := scaguard.Attack(*tf.target)
		if err != nil {
			return nil, nil, err
		}
		prog, victim = poc.Program, poc.Victim
	case *tf.benignSpec != "":
		p, _, err := loadSpec("benign:" + *tf.benignSpec)
		if err != nil {
			return nil, nil, err
		}
		prog = p
	default:
		return nil, nil, fmt.Errorf("one of -target, -benign or -file is required")
	}
	var err error
	if *tf.mutateSeed >= 0 {
		prog, err = scaguard.MutateVariant(prog, *tf.mutateSeed)
		if err != nil {
			return nil, nil, err
		}
	}
	if *tf.obfuscateSeed >= 0 {
		prog, err = scaguard.ObfuscateVariant(prog, *tf.obfuscateSeed)
		if err != nil {
			return nil, nil, err
		}
	}
	if *tf.disasm {
		fmt.Println(prog.Disassemble())
	}
	return prog, victim, nil
}

// scanFlags holds the scan-engine flag values classify, serve and watch
// share; config turns them into the detector's scan configuration.
type scanFlags struct {
	workers, indexClusters, indexMax *int
	fast, indexed                    *bool
}

func registerScanFlags(fs *flag.FlagSet) *scanFlags {
	return &scanFlags{
		workers:       fs.Int("workers", 0, "scan worker-pool size (0 = GOMAXPROCS)"),
		fast:          fs.Bool("fast", false, "early-abandoning scans through the lower-bound cascade: verdicts and best matches stay exact, other scores may be upper bounds"),
		indexed:       fs.Bool("index", false, "with -fast: scan through a medoid-prototype repository index — clusters whose certified lower bounds cannot beat the running best are skipped wholesale (same exact verdict and best match; see docs/INDEXING.md); no effect without -fast"),
		indexClusters: fs.Int("index-clusters", 0, "with -index: number of index clusters (0 = ~sqrt(N) default)"),
		indexMax:      fs.Int("index-max-clusters", 0, "with -index: approximate mode — fully score at most this many clusters per scan and estimate the rest (the verdict may miss matches hiding in unscored clusters; 0 = exact)"),
	}
}

// check records the scan flags' range problems in fe.
func (sf *scanFlags) check(fe *flagErrors) {
	fe.nonNegative("workers", *sf.workers)
	fe.nonNegative("index-clusters", *sf.indexClusters)
	fe.nonNegative("index-max-clusters", *sf.indexMax)
}

func (sf *scanFlags) config() scaguard.ScanConfig {
	return scaguard.ScanConfig{Workers: *sf.workers, Prune: *sf.fast, Index: *sf.indexed,
		IndexClusters: *sf.indexClusters, IndexMaxClusters: *sf.indexMax}
}

// loadTarget resolves -target/-benign/-mutate/-obfuscate flags into a
// program plus its victim.
func loadTarget(fs *flag.FlagSet, args []string) (*scaguard.Program, *scaguard.Program, error) {
	tf := registerTargetFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	return tf.resolve()
}

// loadSpec resolves one streaming target spec — the line format of
// `classify -stream` — into a program plus its victim:
//
//	attack:FR-IAIK              canonical PoC by name
//	benign:crypto/aes-ttable/7  generated benign program
//	file:path/to/prog.s         assembled from a file
func loadSpec(spec string) (*scaguard.Program, *scaguard.Program, error) {
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, nil, fmt.Errorf("target spec %q wants kind:value (attack:, benign:, file:)", spec)
	}
	switch kind {
	case "attack":
		poc, err := scaguard.Attack(rest)
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
		prog, err := scaguard.GenerateBenign(parts[0], parts[1], seed)
		return prog, nil, err
	case "file":
		src, err := os.ReadFile(rest)
		if err != nil {
			return nil, nil, err
		}
		prog, err := scaguard.ParseProgram(rest, string(src))
		return prog, nil, err
	}
	return nil, nil, fmt.Errorf("unknown target spec kind %q (want attack:, benign:, file:)", kind)
}

func cmdModel(args []string) error {
	fs := flag.NewFlagSet("model", flag.ContinueOnError)
	dot := fs.Bool("dot", false, "print the CFG as Graphviz DOT with identified attack-relevant blocks highlighted (Fig. 1/Fig. 4 style)")
	dotGraph := fs.Bool("dot-attack-graph", false, "print the attack-relevant graph as Graphviz DOT")
	prog, victim, err := loadTarget(fs, args)
	if err != nil {
		return err
	}
	m, err := scaguard.BuildModel(prog, victim)
	if err != nil {
		return err
	}
	if *dot {
		highlight := make(map[uint64]bool)
		for _, l := range m.IdentifiedBBs() {
			highlight[l] = true
		}
		fmt.Print(m.CFG.DOT(highlight))
		return nil
	}
	if *dotGraph {
		fmt.Print(m.CFG.GraphDOT(m.AttackGraph, prog.Name+"-attack-graph"))
		return nil
	}
	fmt.Printf("program:            %s\n", m.Name)
	fmt.Printf("cfg blocks:         %d\n", m.CFG.NumBlocks())
	fmt.Printf("potential blocks:   %d\n", len(m.PotentialBBs))
	fmt.Printf("relevant blocks:    %d\n", len(m.RelevantBBs))
	fmt.Printf("identified blocks:  %d\n", len(m.IdentifiedBBs()))
	fmt.Printf("cst-bbs length:     %d\n", m.BBS.Len())
	fmt.Printf("trace cycles:       %d\n", m.TraceCycles)
	fmt.Println("cst-bbs:")
	for i, c := range m.BBS.Seq {
		fmt.Printf("  [%2d] block 0x%x  delta=%.3f  hpc=%d\n       %s\n",
			i, c.Leader, c.Delta(), c.HPCValue, strings.Join(c.NormInsns, "; "))
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	a := fs.String("a", "", "first PoC name")
	b := fs.String("b", "", "second PoC name")
	explain := fs.Bool("explain", false, "print the block alignment")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *a == "" || *b == "" {
		return fmt.Errorf("compare needs -a and -b")
	}
	pa, err := scaguard.Attack(*a)
	if err != nil {
		return err
	}
	pb, err := scaguard.Attack(*b)
	if err != nil {
		return err
	}
	ma, err := scaguard.BuildModel(pa.Program, pa.Victim)
	if err != nil {
		return err
	}
	mb, err := scaguard.BuildModel(pb.Program, pb.Victim)
	if err != nil {
		return err
	}
	fmt.Printf("similarity(%s, %s) = %.2f%%\n", *a, *b, scaguard.Score(ma.BBS, mb.BBS)*100)
	if *explain {
		_, pairs := scaguard.Align(ma.BBS, mb.BBS)
		fmt.Printf("%-24s %-24s %s\n", *a, *b, "cost")
		for _, pr := range pairs {
			ca, cb := ma.BBS.Seq[pr.I], mb.BBS.Seq[pr.J]
			fmt.Printf("0x%-8x d=%.2f         0x%-8x d=%.2f       %.3f\n",
				ca.Leader, ca.Delta(), cb.Leader, cb.Delta(), pr.Cost)
		}
	}
	return nil
}

func cmdRepoSave(args []string) error {
	fs := flag.NewFlagSet("repo-save", flag.ContinueOnError)
	out := fs.String("out", "scaguard-repo.json", "output path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	det, err := scaguard.NewDetector()
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := scaguard.SaveRepository(det.Repo, f); err != nil {
		return err
	}
	fmt.Printf("repository (%d models) written to %s\n", det.Repo.Len(), *out)
	return nil
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "classify against a saved repository instead of the default")
	sf := registerScanFlags(fs)
	stats := fs.Bool("stats", false, "print a telemetry report after the run (pruning rate, DistCache hit rate, stage latencies)")
	metricsAddr := fs.String("metrics-addr", "", "serve the live telemetry snapshot over HTTP on this address (e.g. :8080); JSON by default, Prometheus text via Accept or ?format=prometheus; blocks after the run until interrupted")
	timeout := fs.Duration("timeout", 0, "per-classification deadline covering modeling and scanning (e.g. 500ms); 0 = none")
	streamMode := fs.Bool("stream", false, "read target specs (attack:NAME, benign:kind/template/seed, file:PATH) line by line from stdin and classify them as a fault-isolated stream")
	resultCache := fs.Int("result-cache", 0, "memoize whole classification outcomes for repeated targets in a bounded LRU of this many entries (0 = off): a repeated program skips modeling and the scan; invalidated automatically when the repository grows")
	shardAddrs := fs.String("shard-addrs", "", "comma-separated shard-serve addresses; the repository is scanned across them instead of in process. Each address may name |-separated replicas serving the same partition (\"a:9101|b:9101\"): scans fail over between them")
	shardAttemptTimeout := fs.Duration("shard-attempt-timeout", 0, "per-replica attempt budget within a replicated shard; a slower replica fails over to the next one (0 = none)")
	shardProbe := fs.Duration("shard-probe", 0, "background health-probe interval for replicated shard backends; quarantined replicas are re-admitted within one interval of recovering (0 = off)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures that open a shard replica's circuit breaker (0 = default 3, negative = disable breaking)")
	tf := registerTargetFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var fe flagErrors
	sf.check(&fe)
	fe.nonNegative("result-cache", *resultCache)
	fe.nonNegativeDuration("timeout", *timeout)
	fe.nonNegativeDuration("shard-attempt-timeout", *shardAttemptTimeout)
	fe.nonNegativeDuration("shard-probe", *shardProbe)
	if err := fe.err(); err != nil {
		return err
	}
	det, err := loadDetector(*repoPath)
	if err != nil {
		return err
	}
	det.Scan = sf.config()
	det.Timeout = *timeout
	det.ResultCache = *resultCache
	det.ShardAttemptTimeout = *shardAttemptTimeout
	det.ShardProbeInterval = *shardProbe
	det.ShardBreaker = scaguard.BreakerSettings{Threshold: *breakerThreshold}
	if *shardAddrs != "" {
		det.ShardAddrs = strings.Split(*shardAddrs, ",")
		defer det.Close()
		// Handshake before classifying: every partition needs at least
		// one healthy replica holding the slice the router assigns it,
		// else partition drift would silently misclassify. Dead replicas
		// behind live ones only warn — failover covers them.
		unhealthy, err := scaguard.CheckShardFleet(context.Background(), det.Repo, det.ShardAddrs)
		if err != nil {
			return err
		}
		for _, a := range unhealthy {
			fmt.Fprintf(os.Stderr, "warning: shard replica %s unhealthy; failover will cover it\n", a)
		}
	}
	var tel *scaguard.Telemetry
	if *stats || *metricsAddr != "" {
		tel = scaguard.NewTelemetry()
		det.Telemetry = tel
	}
	var metricsURL string
	if *metricsAddr != "" {
		bound, shutdown, err := scaguard.ServeTelemetry(*metricsAddr, tel)
		if err != nil {
			return err
		}
		defer shutdown()
		metricsURL = "http://" + bound + "/metrics"
		fmt.Fprintf(os.Stderr, "serving telemetry on %s\n", metricsURL)
	}

	if *streamMode {
		if err := runStream(det, *sf.workers); err != nil {
			return err
		}
	} else {
		prog, victim, err := tf.resolve()
		if err != nil {
			return err
		}
		res, m, err := det.ClassifyCtx(context.Background(), prog, victim)
		if err != nil {
			return err
		}
		fmt.Printf("target:    %s (model length %d)\n", prog.Name, m.BBS.Len())
		fmt.Printf("verdict:   %s\n", res.Predicted)
		for _, match := range res.Matches {
			marker := " "
			if match.Score >= det.Threshold {
				marker = "*"
			}
			bound := " "
			if match.Pruned {
				bound = "~" // early-abandoned: score is an upper bound
			}
			fmt.Printf("  %s %-14s %-5s %s%6.2f%%\n", marker, match.Name, match.Family, bound, match.Score*100)
		}
	}

	if *stats {
		tel.Snapshot().WriteReport(os.Stdout)
	}
	if *metricsAddr != "" {
		fmt.Fprintf(os.Stderr, "telemetry still served on %s — interrupt to exit\n", metricsURL)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
	return nil
}

// loadDetector builds the detector from a saved repository when path is
// set, else from the default canonical-PoC repository.
func loadDetector(path string) (*scaguard.Detector, error) {
	if path == "" {
		return scaguard.NewDetector()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	repo, err := scaguard.LoadRepository(f)
	if err != nil {
		return nil, err
	}
	return scaguard.NewDetectorFromRepository(repo), nil
}

// cmdShardServe hosts one shard of the repository over HTTP: the
// process derives the same partition every classify client derives, so
// the only coordination needed is agreeing on -shards. Blocks until
// interrupted.
func cmdShardServe(args []string) error {
	fs := flag.NewFlagSet("shard-serve", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "serve a shard of a saved repository instead of the default")
	shards := fs.Int("shards", 1, "total number of shards in the deployment")
	shardIndex := fs.Int("shard-index", 0, "which shard this process serves (0-based)")
	addr := fs.String("addr", ":9101", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "scan worker-pool size inside this shard (0 = GOMAXPROCS)")
	warmIndex := fs.Bool("index", false, "pre-build the medoid-prototype repository index over this shard's slice at startup, so the first indexed /scan skips the O(n²) construction (clients opt into indexed scans per request; see docs/INDEXING.md)")
	indexClusters := fs.Int("index-clusters", 0, "with -index: cluster count of the pre-built index (0 = ~sqrt(N) default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var fe flagErrors
	fe.atLeast("shards", *shards, 1)
	fe.nonNegative("shard-index", *shardIndex)
	if *shards >= 1 && *shardIndex >= *shards {
		fe.add("-shard-index %d out of range for %d shards", *shardIndex, *shards)
	}
	fe.nonNegative("workers", *workers)
	fe.nonNegative("index-clusters", *indexClusters)
	if err := fe.err(); err != nil {
		return err
	}
	det, err := loadDetector(*repoPath)
	if err != nil {
		return err
	}
	bound, shutdown, err := scaguard.ServeShard(det.Repo, *shards, *shardIndex, *addr,
		scaguard.ShardServerConfig{Workers: *workers, WarmIndex: *warmIndex, IndexClusters: *indexClusters})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "shard %d/%d serving on %s — interrupt to exit\n", *shardIndex, *shards, bound)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return shutdown(ctx)
}

// cmdServe runs the detection-as-a-service front end: a long-lived
// HTTP/JSON server classifying targets for many concurrent clients,
// optionally fronting a shard-serve fleet. It drains gracefully on
// SIGTERM/SIGINT: intake stops, in-flight requests and streams flush,
// then the process exits. See docs/SERVING.md.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":9090", "listen address (host:port; port 0 picks a free port)")
	repoPath := fs.String("repo", "", "serve a saved repository instead of the default; also the default source for POST /reload")
	sf := registerScanFlags(fs)
	resultCache := fs.Int("result-cache", 0, "memoize whole classification outcomes in a bounded LRU of this many entries (0 = off): a repeated program skips modeling and the scan; invalidated by /reload and repository growth")
	shardAddrs := fs.String("shard-addrs", "", "comma-separated shard-serve addresses; the repository is scanned across them. Each address may name |-separated replicas serving the same partition (\"a:9101|b:9101\"): scans fail over between them")
	shardTimeout := fs.Duration("shard-timeout", 0, "per-shard share of one scan; a slower shard fails that scan and the verdict degrades to partial (0 = none)")
	shardAttemptTimeout := fs.Duration("shard-attempt-timeout", 0, "per-replica attempt budget within a replicated shard; a slower replica fails over to the next one (0 = none)")
	shardProbe := fs.Duration("shard-probe", 5*time.Second, "background health-probe interval for replicated shard backends; quarantined replicas are re-admitted within one interval of recovering (0 = off)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures that open a shard replica's circuit breaker (0 = default 3, negative = disable breaking)")
	timeout := fs.Duration("timeout", 0, "per-target deadline covering modeling and scanning (0 = none)")
	maxInflight := fs.Int("max-inflight", 0, "global cap on admitted in-flight requests; excess requests are shed with 429 (0 = 256)")
	rate := fs.Float64("rate", 0, "per-API-key sustained admission rate in targets/sec (0 = unlimited)")
	burst := fs.Int("burst", 0, "per-API-key token-bucket burst (0 = 2*rate, min 1)")
	streamWorkers := fs.Int("stream-workers", 0, "concurrent classifications per streaming connection/batch (0 = GOMAXPROCS)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests before giving up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var fe flagErrors
	sf.check(&fe)
	fe.nonNegative("result-cache", *resultCache)
	fe.nonNegative("max-inflight", *maxInflight)
	fe.nonNegative("burst", *burst)
	fe.nonNegative("stream-workers", *streamWorkers)
	fe.nonNegativeFloat("rate", *rate)
	fe.nonNegativeDuration("timeout", *timeout)
	fe.nonNegativeDuration("shard-timeout", *shardTimeout)
	fe.nonNegativeDuration("shard-attempt-timeout", *shardAttemptTimeout)
	fe.nonNegativeDuration("shard-probe", *shardProbe)
	fe.nonNegativeDuration("drain-timeout", *drainTimeout)
	if err := fe.err(); err != nil {
		return err
	}
	det, err := loadDetector(*repoPath)
	if err != nil {
		return err
	}
	det.Scan = sf.config()
	det.Timeout = *timeout
	det.ResultCache = *resultCache
	det.ShardTimeout = *shardTimeout
	det.ShardAttemptTimeout = *shardAttemptTimeout
	det.ShardProbeInterval = *shardProbe
	det.ShardBreaker = scaguard.BreakerSettings{Threshold: *breakerThreshold}
	if *shardAddrs != "" {
		det.ShardAddrs = strings.Split(*shardAddrs, ",")
		defer det.Close()
		unhealthy, err := scaguard.CheckShardFleet(context.Background(), det.Repo, det.ShardAddrs)
		if err != nil {
			return err
		}
		for _, a := range unhealthy {
			fmt.Fprintf(os.Stderr, "warning: shard replica %s unhealthy; failover will cover it\n", a)
		}
	}
	tel := scaguard.NewTelemetry()
	det.Telemetry = tel

	srv := scaguard.NewDetectionServer(scaguard.ServeConfig{
		Detector:      det,
		MaxConcurrent: *maxInflight,
		RatePerKey:    *rate,
		BurstPerKey:   *burst,
		StreamWorkers: *streamWorkers,
		Telemetry:     tel,
		Reload: func(path string) (*scaguard.Repository, error) {
			if path == "" {
				path = *repoPath
			}
			if path == "" {
				// No saved repository: rebuild the canonical default.
				d, err := scaguard.NewDetector()
				if err != nil {
					return nil, err
				}
				return d.Repo, nil
			}
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return scaguard.LoadRepository(f)
		},
	})
	bound, err := srv.Serve(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scaguard serve: detection service on http://%s (endpoints: /v1/classify, /v1/classify/stream, /reload, /healthz, /metrics) — interrupt to drain and exit\n", bound)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	fmt.Fprintln(os.Stderr, "scaguard serve: draining")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "scaguard serve: drained")
	return nil
}

// cmdWatch runs the online sliding-window detector over a live run of
// the target: the program executes on a fresh machine whose events
// stream into the detector, and one verdict line prints per time window
// as the run crosses window boundaries — so an in-flight attack is flagged
// mid-trace, before the run ends. The final summary reports the
// aggregate verdict and the latency-to-detection metric. See
// docs/WINDOWING.md.
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	repoPath := fs.String("repo", "", "classify against a saved repository instead of the default")
	windowSize := fs.Int("window", 0, "window width in cycles (0 = 8192 default)")
	stride := fs.Int("stride", 0, "cycle distance between window starts (0 = window/2 under the default width, else = window); must not exceed -window")
	quietGap := fs.Int("quiet-gap", 0, "collapse runs of empty windows spanning at least this many cycles into one verdict (0 = one verdict per empty window)")
	sf := registerScanFlags(fs)
	timeout := fs.Duration("timeout", 0, "per-window deadline covering modeling and scanning (0 = none)")
	stats := fs.Bool("stats", false, "print a telemetry report after the run (window counters, modeling-stage latencies)")
	hitsOnly := fs.Bool("hits-only", false, "print only malicious window verdicts (quiet and benign windows still count in the summary)")
	tf := registerTargetFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var fe flagErrors
	fe.nonNegative("window", *windowSize)
	fe.nonNegative("stride", *stride)
	fe.nonNegative("quiet-gap", *quietGap)
	sf.check(&fe)
	fe.nonNegativeDuration("timeout", *timeout)
	if err := fe.err(); err != nil {
		return err
	}
	prog, victim, err := tf.resolve()
	if err != nil {
		return err
	}
	det, err := loadDetector(*repoPath)
	if err != nil {
		return err
	}
	det.Scan = sf.config()
	det.Timeout = *timeout
	var tel *scaguard.Telemetry
	if *stats {
		tel = scaguard.NewTelemetry()
		det.Telemetry = tel
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	flagged := false
	emit := func(v scaguard.WindowVerdict) {
		switch {
		case v.Err != nil:
			fmt.Printf("window %3d [%8d,%8d) ERROR %v\n", v.Index, v.Start, v.End, v.Err)
		case v.Reason != "":
			if !*hitsOnly {
				fmt.Printf("window %3d [%8d,%8d) events=%-5d benign (%s)\n", v.Index, v.Start, v.End, v.Events, v.Reason)
			}
		default:
			mark := " "
			if v.Malicious() {
				mark = "*"
			}
			if !*hitsOnly || v.Malicious() {
				fmt.Printf("window %3d [%8d,%8d) events=%-5d %s %-7s best=%s %.2f%%\n",
					v.Index, v.Start, v.End, v.Events, mark, v.Result.Predicted, v.Result.Best.Name, v.Result.Best.Score*100)
			}
			if v.Malicious() && !flagged {
				flagged = true
				fmt.Printf(">>> ATTACK FLAGGED MID-TRACE: cycle %d, window %d, family %s\n", v.End, v.Index, v.Result.Predicted)
			}
		}
	}
	cfg := scaguard.WindowConfig{Size: uint64(*windowSize), Stride: uint64(*stride), QuietGap: uint64(*quietGap)}
	out, err := scaguard.Watch(ctx, det, prog, victim, cfg, emit)
	if err != nil {
		return err
	}
	fmt.Printf("\ntarget:    %s\n", prog.Name)
	fmt.Printf("windows:   %d (%d hits, %d quiet, %d errors)\n", out.Windows, out.Hits, out.Quiet, out.Errors)
	fmt.Printf("verdict:   %s", out.Final.Predicted)
	if out.Final.Best.Name != "" {
		fmt.Printf("  best=%s %.2f%%", out.Final.Best.Name, out.Final.Best.Score*100)
	}
	fmt.Println()
	if lat, ok := out.LatencyToDetection(); ok {
		fmt.Printf("detected:  cycle %d (latency-to-detection %d cycles)\n", out.DetectionCycle, lat)
	} else {
		fmt.Println("detected:  no")
	}
	if *stats {
		tel.Snapshot().WriteReport(os.Stdout)
	}
	return nil
}

// runStream reads target specs from stdin incrementally and classifies
// them through the streaming pipeline: verdicts print in input order, a
// bad spec or a failed target prints an ERROR line (and counts as
// failed) without stopping the stream, and an interrupt cancels cleanly
// (the pipeline flushes error results for accepted targets before the
// command exits).
func runStream(det *scaguard.Detector, workers int) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	in := make(chan scaguard.StreamTarget)
	go func() {
		defer close(in)
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			t := scaguard.StreamTarget{ID: line}
			t.Program, t.Victim, t.Err = loadSpec(line)
			select {
			case in <- t:
			case <-ctx.Done():
				return
			}
		}
	}()
	out := scaguard.ClassifyStream(ctx, det, in, workers)
	n, failed := 0, 0
	for r := range out {
		n++
		if r.Err != nil {
			failed++
		}
		fmt.Println(streamLine(r))
	}
	fmt.Fprintf(os.Stderr, "stream: %d targets, %d failed\n", n, failed)
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// streamLine renders one stream result. A partial verdict is shown, as
// serve shows it, but flagged PARTIAL; runStream still counts it as
// failed, so it never passes for a complete one.
func streamLine(r scaguard.StreamResult) string {
	var pe *scaguard.ShardPartialError
	if r.Err != nil && !errors.As(r.Err, &pe) {
		return fmt.Sprintf("%-34s ERROR %v", r.ID, r.Err)
	}
	line := fmt.Sprintf("%-34s %-7s best=%s %.2f%%",
		r.ID, r.Verdict.Predicted, r.Verdict.Best.Name, r.Verdict.Best.Score*100)
	if pe != nil {
		line += fmt.Sprintf(" PARTIAL %v", r.Err)
	}
	return line
}
