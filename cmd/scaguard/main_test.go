package main

// Numeric-knob validation pins: every subcommand must reject
// semantically nonsensical flag values right after parsing, naming
// each offending flag — never let a negative worker count or cluster
// budget flow into the engine and fail somewhere far from the flag
// that caused it. All failures of one invocation are reported at once.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	scaguard "repro"
	"repro/internal/shard"
)

func TestNumericKnobValidation(t *testing.T) {
	cases := []struct {
		name string
		run  func([]string) error
		args []string
		want []string // substrings the error must name
	}{
		{
			name: "classify accumulates",
			run:  cmdClassify,
			args: []string{"-workers", "-4", "-index-clusters", "-1", "-target", "FR-IAIK"},
			want: []string{"-workers", "-index-clusters"},
		},
		{
			name: "classify negative timeout",
			run:  cmdClassify,
			args: []string{"-timeout", "-5s", "-target", "FR-IAIK"},
			want: []string{"-timeout"},
		},
		{
			name: "classify negative result cache",
			run:  cmdClassify,
			args: []string{"-result-cache", "-8", "-target", "FR-IAIK"},
			want: []string{"-result-cache"},
		},
		{
			name: "serve mixed types",
			run:  cmdServe,
			args: []string{"-stream-workers", "-2", "-rate", "-0.5"},
			want: []string{"-stream-workers", "-rate"},
		},
		{
			name: "serve negative index budget",
			run:  cmdServe,
			args: []string{"-index-max-clusters", "-3"},
			want: []string{"-index-max-clusters"},
		},
		{
			name: "shard-serve zero shards",
			run:  cmdShardServe,
			args: []string{"-shards", "0"},
			want: []string{"-shards"},
		},
		{
			name: "shard-serve index out of range",
			run:  cmdShardServe,
			args: []string{"-shards", "2", "-shard-index", "2"},
			want: []string{"-shard-index"},
		},
		{
			name: "watch window knobs",
			run:  cmdWatch,
			args: []string{"-window", "-1", "-quiet-gap", "-3", "-target", "FR-IAIK"},
			want: []string{"-window", "-quiet-gap"},
		},
		{
			name: "watch negative stride",
			run:  cmdWatch,
			args: []string{"-stride", "-4096", "-target", "FR-IAIK"},
			want: []string{"-stride"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(tc.args)
			if err == nil {
				t.Fatal("bad flag values accepted")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %s", err, w)
				}
			}
		})
	}
}

// TestBreakerThresholdNegativeAllowed: -breaker-threshold's negative
// range is meaningful ("disable breaking"), so validation must not
// reject it. The invocation still fails — the target spec is missing —
// but not on the flag value.
func TestBreakerThresholdNegativeAllowed(t *testing.T) {
	err := cmdClassify([]string{"-breaker-threshold", "-1"})
	if err == nil {
		t.Fatal("expected a missing-target error")
	}
	if strings.Contains(err.Error(), "breaker-threshold") {
		t.Fatalf("negative -breaker-threshold rejected: %v", err)
	}
}

// TestScanFlagsShared: classify, serve and watch define their scan flags
// through one helper, so a bad scan knob is rejected with the same
// message everywhere, and the retired -cascade flag (every -fast scan
// runs the cascade) is gone from all three.
func TestScanFlagsShared(t *testing.T) {
	cmds := map[string]func([]string) error{"classify": cmdClassify, "serve": cmdServe, "watch": cmdWatch}
	const want = "invalid flag value(s): -index-clusters must be >= 0, got -1"
	for name, run := range cmds {
		if err := run([]string{"-index-clusters", "-1"}); err == nil || err.Error() != want {
			t.Errorf("%s -index-clusters -1: error %v, want %q", name, err, want)
		}
		if err := run([]string{"-cascade"}); err == nil || !strings.Contains(err.Error(), "not defined: -cascade") {
			t.Errorf("%s -cascade: error %v, want an undefined-flag error", name, err)
		}
	}
}

// TestStreamLinePartialVerdict: classify -stream shows a partial verdict
// the way serve's batch and NDJSON endpoints do — prediction and best
// match kept, flagged PARTIAL — while any other error still prints as
// ERROR with no verdict.
func TestStreamLinePartialVerdict(t *testing.T) {
	verdict := scaguard.Result{Predicted: "FR-F", Best: scaguard.Match{Name: "FR-IAIK", Score: 1}}
	partial := fmt.Errorf("classify: %w", &scaguard.ShardPartialError{
		Failed:  []*shard.ShardError{{Shard: "1", Entries: 3, Err: errors.New("connection refused")}},
		Missing: 3,
	})
	got := streamLine(scaguard.StreamResult{ID: "attack:FR-IAIK", Verdict: verdict, Err: partial})
	for _, want := range []string{"FR-F", "best=FR-IAIK 100.00%", "PARTIAL", "3 entries missing"} {
		if !strings.Contains(got, want) {
			t.Errorf("partial line %q lacks %q", got, want)
		}
	}
	got = streamLine(scaguard.StreamResult{ID: "attack:FR-IAIK", Verdict: verdict, Err: errors.New("boom")})
	if !strings.Contains(got, "ERROR boom") || strings.Contains(got, "FR-F") {
		t.Errorf("error line %q, want an ERROR line without the verdict", got)
	}
	got = streamLine(scaguard.StreamResult{ID: "attack:FR-IAIK", Verdict: verdict})
	if strings.Contains(got, "PARTIAL") || strings.Contains(got, "ERROR") || !strings.Contains(got, "FR-F") {
		t.Errorf("complete line %q, want the bare verdict", got)
	}
}

// TestRunStreamOrdersBadSpecs: classify -stream prints an unresolvable
// spec line's ERROR in its input position, between the verdicts of its
// neighbors, and counts it in the closing summary.
func TestRunStreamOrdersBadSpecs(t *testing.T) {
	det, err := scaguard.NewDetector()
	if err != nil {
		t.Fatal(err)
	}
	stdin, err := os.CreateTemp(t.TempDir(), "specs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stdin.WriteString("attack:FR-IAIK\nattack:NOPE\nbenign:crypto/aes-ttable/7\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := stdin.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldIn, oldOut, oldErr := os.Stdin, os.Stdout, os.Stderr
	os.Stdin, os.Stdout, os.Stderr = stdin, outW, errW
	runErr := runStream(det, 2)
	os.Stdin, os.Stdout, os.Stderr = oldIn, oldOut, oldErr
	outW.Close()
	errW.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	out, _ := io.ReadAll(outR)
	summary, _ := io.ReadAll(errR)

	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), out)
	}
	for i, want := range []string{"attack:FR-IAIK", "attack:NOPE", "benign:crypto/aes-ttable/7"} {
		if !strings.HasPrefix(lines[i], want+" ") {
			t.Errorf("line %d = %q, want target %s", i, lines[i], want)
		}
		if isErr := strings.Contains(lines[i], " ERROR "); isErr != (i == 1) {
			t.Errorf("line %d = %q: ERROR = %v", i, lines[i], isErr)
		}
	}
	if got := strings.TrimSpace(string(summary)); got != "stream: 3 targets, 1 failed" {
		t.Errorf("summary = %q, want the bad spec counted", got)
	}
}
