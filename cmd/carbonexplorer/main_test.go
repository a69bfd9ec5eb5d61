package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func runBg(args ...string) error { return run(context.Background(), args) }

func TestRunRequiresSubcommand(t *testing.T) {
	if err := runBg(); err == nil {
		t.Fatal("missing subcommand should error")
	}
	if err := runBg("bogus"); err == nil {
		t.Fatal("unknown subcommand should error")
	}
}

func TestRunHelp(t *testing.T) {
	if err := runBg("help"); err != nil {
		t.Fatalf("help failed: %v", err)
	}
}

func TestRunSites(t *testing.T) {
	if err := runBg("sites"); err != nil {
		t.Fatalf("sites failed: %v", err)
	}
}

func TestRunCoverage(t *testing.T) {
	if err := runBg("coverage", "-site", "UT", "-wind", "100", "-solar", "100"); err != nil {
		t.Fatalf("coverage failed: %v", err)
	}
	if err := runBg("coverage", "-site", "ZZ"); err == nil {
		t.Fatal("unknown site should error")
	}
}

func TestRunEvaluate(t *testing.T) {
	if err := runBg("evaluate", "-site", "UT", "-wind", "100", "-battery-hours", "2", "-flex", "0.4"); err != nil {
		t.Fatalf("evaluate failed: %v", err)
	}
	if err := runBg("evaluate", "-site", "UT", "-dod", "3"); err != nil {
		// dod is ignored without a battery; this should succeed.
		t.Fatalf("evaluate without battery should ignore dod: %v", err)
	}
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		flag string // expected flag name in the message
	}{
		{[]string{"evaluate", "-site", "UT", "-wind", "-5"}, "-wind"},
		{[]string{"evaluate", "-site", "UT", "-solar", "-1"}, "-solar"},
		{[]string{"evaluate", "-site", "UT", "-wind", "NaN"}, "-wind"},
		{[]string{"evaluate", "-site", "UT", "-battery-hours", "-2"}, "-battery-hours"},
		{[]string{"evaluate", "-site", "UT", "-battery-hours", "2", "-dod", "3"}, "-dod"},
		{[]string{"evaluate", "-site", "UT", "-battery-hours", "2", "-dod", "0"}, "-dod"},
		{[]string{"evaluate", "-site", "UT", "-flex", "1.5"}, "-flex"},
		{[]string{"evaluate", "-site", "UT", "-flex", "-0.1"}, "-flex"},
		{[]string{"evaluate", "-site", "UT", "-extra-capacity", "-1"}, "-extra-capacity"},
		{[]string{"coverage", "-site", "UT", "-wind", "-1"}, "-wind"},
		{[]string{"coverage", "-site", "UT", "-solar", "Inf"}, "-solar"},
	}
	for _, c := range cases {
		err := runBg(c.args...)
		if err == nil {
			t.Fatalf("%v: invalid flag accepted", c.args)
		}
		if !strings.Contains(err.Error(), c.flag) {
			t.Fatalf("%v: error %q does not name flag %s", c.args, err, c.flag)
		}
	}
}

func TestOptimizeTimeoutPrintsPartialOrInterrupts(t *testing.T) {
	// A microscopic timeout must interrupt the sweep with a context error,
	// never hang or panic. (Whether any design finishes first is timing-
	// dependent; both outcomes return a DeadlineExceeded-wrapped error.)
	err := runBg("optimize", "-site", "UT", "-strategy", "renewables", "-timeout", "1ns")
	if err == nil {
		t.Fatal("1ns sweep should be interrupted")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded in chain, got %v", err)
	}
}

func TestOptimizeCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"optimize", "-site", "UT", "-strategy", "renewables"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled in chain, got %v", err)
	}
}

func TestOptimizeNegativeTimeout(t *testing.T) {
	if err := runBg("optimize", "-timeout", "-1s"); err == nil {
		t.Fatal("negative timeout accepted")
	}
}

func TestOptimizeCompletesWithGenerousTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	start := time.Now()
	if err := runBg("optimize", "-site", "UT", "-strategy", "renewables", "-timeout", "10m"); err != nil {
		t.Fatalf("optimize with generous timeout failed after %v: %v", time.Since(start), err)
	}
}

func TestOptimizeFlagValidation(t *testing.T) {
	if err := runBg("optimize", "-batch", "-1"); err == nil {
		t.Fatal("negative batch size accepted")
	}
	if err := runBg("optimize", "-resume"); err == nil {
		t.Fatal("-resume without -checkpoint accepted")
	}
}

func TestOptimizeCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ckpt := filepath.Join(t.TempDir(), "sweep.json")

	// Interrupt a checkpointed sweep before it starts: even then the sweep
	// must persist its state so -resume can pick it up. (Mid-sweep resume
	// equivalence is covered by the sweep and faultinject package tests.)
	err := runBg("optimize", "-site", "UT", "-strategy", "renewables",
		"-checkpoint", ckpt, "-batch", "4", "-timeout", "1ns")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if _, statErr := os.Stat(ckpt); statErr != nil {
		t.Fatalf("interrupted sweep left no checkpoint: %v", statErr)
	}

	// Resume must finish the sweep from the file.
	if err := runBg("optimize", "-site", "UT", "-strategy", "renewables",
		"-checkpoint", ckpt, "-resume"); err != nil {
		t.Fatalf("resume failed: %v", err)
	}

	// Resuming the same checkpoint under a different strategy must be
	// rejected, not silently mixed.
	if err := runBg("optimize", "-site", "UT", "-strategy", "battery",
		"-checkpoint", ckpt, "-resume"); err == nil {
		t.Fatal("checkpoint resumed under a different strategy")
	}
}

func TestShardFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		flag string // expected flag name in the message
	}{
		{[]string{"optimize", "-site", "UT", "-shard", "0/3", "-checkpoint", "x.json"}, "-shard"},
		{[]string{"optimize", "-site", "UT", "-shard", "4/3", "-checkpoint", "x.json"}, "-shard"},
		{[]string{"optimize", "-site", "UT", "-shard", "-1/3", "-checkpoint", "x.json"}, "-shard"},
		{[]string{"optimize", "-site", "UT", "-shard", "1/0", "-checkpoint", "x.json"}, "-shard"},
		{[]string{"optimize", "-site", "UT", "-shard", "a/3", "-checkpoint", "x.json"}, "-shard"},
		{[]string{"optimize", "-site", "UT", "-shard", "1/b", "-checkpoint", "x.json"}, "-shard"},
		{[]string{"optimize", "-site", "UT", "-shard", "2", "-checkpoint", "x.json"}, "-shard"},
		{[]string{"optimize", "-site", "UT", "-shard", "1.5/3", "-checkpoint", "x.json"}, "-shard"},
	}
	for _, c := range cases {
		err := runBg(c.args...)
		if err == nil {
			t.Fatalf("%v: invalid shard accepted", c.args)
		}
		if !strings.Contains(err.Error(), c.flag) {
			t.Fatalf("%v: error %q does not name flag %s", c.args, err, c.flag)
		}
	}

	// A shard worker without a checkpoint has nothing to merge later.
	if err := runBg("optimize", "-site", "UT", "-shard", "1/3"); err == nil {
		t.Fatal("-shard without -checkpoint accepted")
	}
}

func TestCoordinateFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		flag string // expected flag name in the message
	}{
		{"negative workers", []string{"optimize", "-site", "UT", "-workers", "-2"}, "-workers"},
		{"negative leases", []string{"optimize", "-site", "UT", "-workers", "2", "-leases", "-8"}, "-leases"},
		{"negative retries", []string{"optimize", "-site", "UT", "-retries", "-1"}, "-retries"},
		{"leases without coordination", []string{"optimize", "-site", "UT", "-leases", "8"}, "-leases"},
		{"shard conflicts with workers", []string{"optimize", "-site", "UT", "-workers", "2", "-shard", "1/3", "-checkpoint", "x.json"}, "-shard"},
		{"resume conflicts with coordinate", []string{"optimize", "-site", "UT", "-coordinate", "leases", "-resume"}, "-resume"},
		{"checkpoint with in-process workers", []string{"optimize", "-site", "UT", "-workers", "2", "-checkpoint", "x.json"}, "-checkpoint"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := runBg(c.args...)
			if err == nil {
				t.Fatalf("%v: invalid flag combination accepted", c.args)
			}
			if !strings.Contains(err.Error(), c.flag) {
				t.Fatalf("%v: error %q does not name flag %s", c.args, err, c.flag)
			}
		})
	}
}

func TestOptimizeCoordinated(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	// In-process work stealing.
	if err := runBg("optimize", "-site", "UT", "-strategy", "renewables",
		"-workers", "2"); err != nil {
		t.Fatalf("in-process coordinated optimize failed: %v", err)
	}
	// Lease-directory coordination leaves a complete merged checkpoint that
	// a plain resume accepts, and cleans its lease files up.
	dir := t.TempDir()
	if err := runBg("optimize", "-site", "UT", "-strategy", "renewables",
		"-workers", "2", "-coordinate", dir, "-leases", "6"); err != nil {
		t.Fatalf("lease-directory coordinated optimize failed: %v", err)
	}
	merged := filepath.Join(dir, "merged.json")
	if err := runBg("optimize", "-site", "UT", "-strategy", "renewables",
		"-checkpoint", merged, "-resume"); err != nil {
		t.Fatalf("resume of coordinator's merged checkpoint failed: %v", err)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "lease-*"))
	if err != nil {
		t.Fatalf("globbing lease files: %v", err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("lease files left behind after a complete run: %v", leftovers)
	}
}

func TestMergeFlagValidation(t *testing.T) {
	if err := runBg("merge"); err == nil {
		t.Fatal("merge without -out or inputs accepted")
	}
	if err := runBg("merge", "-out", filepath.Join(t.TempDir(), "m.json")); err == nil {
		t.Fatal("merge without input checkpoints accepted")
	}
	if err := runBg("merge", "shard1.json"); err == nil {
		t.Fatal("merge without -out accepted")
	}
	if err := runBg("merge", "-out", filepath.Join(t.TempDir(), "m.json"),
		filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("merge of a missing checkpoint accepted")
	}
}

func TestOptimizeShardMergeResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	// The OPERATIONS.md worked example, end to end: three shard workers,
	// one merge, one resume that verifies nothing is left pending.
	dir := t.TempDir()
	var shards []string
	for i := 1; i <= 3; i++ {
		ckpt := filepath.Join(dir, "shard"+strconv.Itoa(i)+".json")
		if err := runBg("optimize", "-site", "UT", "-strategy", "renewables",
			"-shard", strconv.Itoa(i)+"/3", "-checkpoint", ckpt); err != nil {
			t.Fatalf("shard %d/3 failed: %v", i, err)
		}
		shards = append(shards, ckpt)
	}
	merged := filepath.Join(dir, "merged.json")
	if err := runBg(append([]string{"merge", "-out", merged}, shards...)...); err != nil {
		t.Fatalf("merge failed: %v", err)
	}
	if err := runBg("optimize", "-site", "UT", "-strategy", "renewables",
		"-checkpoint", merged, "-resume"); err != nil {
		t.Fatalf("resume of merged checkpoint failed: %v", err)
	}
}

func TestRunOptimizeBadStrategy(t *testing.T) {
	if err := runBg("optimize", "-strategy", "nonsense"); err == nil {
		t.Fatal("bad strategy should error")
	}
}

func TestRunFigureValidation(t *testing.T) {
	if err := runBg("figure"); err == nil {
		t.Fatal("figure without id should error")
	}
	if err := runBg("figure", "99"); err == nil {
		t.Fatal("unknown figure should error")
	}
	// Figure 2/13 are block diagrams, not data artifacts.
	if err := runBg("figure", "2"); err == nil {
		t.Fatal("figure 2 is a diagram, should be rejected")
	}
	if err := runBg("figure", "10"); err != nil {
		t.Fatalf("figure 10 failed: %v", err)
	}
}

func TestRunStudyValidation(t *testing.T) {
	if err := runBg("study"); err == nil {
		t.Fatal("study without name should error")
	}
	if err := runBg("study", "nonsense"); err == nil {
		t.Fatal("unknown study should error")
	}
	if err := runBg("study", "battery-tech", "-site", "UT"); err != nil {
		t.Fatalf("battery-tech study failed: %v", err)
	}
}

func TestAdaptiveFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string // expected fragment of the error message
	}{
		{[]string{"optimize", "-site", "UT", "-mode", "turbo"}, "-mode"},
		{[]string{"optimize", "-site", "UT", "-tolerance", "0.1"}, "-tolerance"},
		{[]string{"optimize", "-site", "UT", "-max-rounds", "2"}, "-max-rounds"},
		{[]string{"optimize", "-site", "UT", "-coarse", "3"}, "-coarse"},
		{[]string{"optimize", "-site", "UT", "-mode", "adaptive", "-tolerance", "1.5"}, "out of [0, 1)"},
		{[]string{"optimize", "-site", "UT", "-mode", "adaptive", "-tolerance", "-0.1"}, "out of [0, 1)"},
		{[]string{"optimize", "-site", "UT", "-mode", "adaptive", "-max-rounds", "-1"}, "MaxRounds"},
		{[]string{"optimize", "-site", "UT", "-mode", "adaptive", "-coarse", "1"}, "at least 2"},
	}
	for _, c := range cases {
		err := runBg(c.args...)
		if err == nil {
			t.Fatalf("%v: invalid flags accepted", c.args)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%v: error %q does not mention %q", c.args, err, c.want)
		}
	}
}

func TestOptimizeAdaptive(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "adaptive.json")
	if err := runBg("optimize", "-site", "UT", "-strategy", "all", "-mode", "adaptive",
		"-tolerance", "0.05", "-max-rounds", "2", "-coarse", "3", "-checkpoint", ckpt); err != nil {
		t.Fatalf("adaptive optimize failed: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("adaptive optimize left no checkpoint: %v", err)
	}
	// Re-invoking with -resume fast-forwards through the converged
	// checkpoint without evaluating anything (and without error).
	if err := runBg("optimize", "-site", "UT", "-strategy", "all", "-mode", "adaptive",
		"-tolerance", "0.05", "-max-rounds", "2", "-coarse", "3", "-checkpoint", ckpt, "-resume"); err != nil {
		t.Fatalf("adaptive resume failed: %v", err)
	}
}

func TestOptimizeAdaptiveCoordinated(t *testing.T) {
	if testing.Short() {
		t.Skip("coordinated adaptive sweep in -short mode")
	}
	dir := t.TempDir()
	if err := runBg("optimize", "-site", "UT", "-strategy", "all", "-mode", "adaptive",
		"-tolerance", "0.05", "-max-rounds", "2", "-coarse", "3",
		"-workers", "2", "-coordinate", filepath.Join(dir, "leases")); err != nil {
		t.Fatalf("coordinated adaptive optimize failed: %v", err)
	}
}

// TestHTTPServerClosesStalledRequest: the server the coordinate and serve
// subcommands listen with closes a connection whose request line stalls
// halfway once the header timeout passes, and sets no whole-request read or
// response write deadline that would cut off a large sweep's checkpoint
// transfers.
func TestHTTPServerClosesStalledRequest(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("header timeout %v, idle timeout %v: both must be set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("read timeout %v, write timeout %v: both must stay unset", srv.ReadTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/heal"); err != nil {
		t.Fatalf("writing half a request line: %v", err)
	}
	// The server hangs up: the read ends at EOF long before the client's own
	// deadline, which would surface as a timeout error instead.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatalf("setting read deadline: %v", err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept a stalled half-sent request open: %v", err)
	}
}
