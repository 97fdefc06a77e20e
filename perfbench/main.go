// Command perfbench is the repository benchmark. It generates a
// workload's clips and request schedule from a seed, drives in-process
// stream servers through stream.Client.PlayContext from a closed loop of
// clients, checks every delivered frame and ledger against a reference
// server, and prints the end-to-end metrics; with -trace 1 it instead
// runs a traced phase and a layer replay and prints the per-layer
// metrics. The last line of standard output is one JSON object.
//
//	go build -o perfbench . && ./perfbench -workload cold-miss -seed 1 -seconds 15 -trace 0
//
// See README.md for the metric catalogue.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errWrong marks a run whose outputs failed verification.
var errWrong = errors.New("wrong output")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (cold-miss, warm-replay, store-cluster)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced phase and layer replay and prints per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for stores and span files (created if missing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (cold-miss, warm-replay or store-cluster), -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	dur := time.Duration(*secs * float64(time.Second))
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %s timed, %d client(s), %d node(s), trace %d\n%s: %s\n",
		w.name, *seed, dur, w.clients, w.nodes, *trace, w.name, w.why)
	if *trace == 1 {
		err = runTraced(stdout, w, *seed, dur, dir, *workdir)
	} else {
		err = runUntraced(stdout, w, *seed, dur, dir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// scheduleLen sizes the schedule so no run can exhaust it: fresh
// sessions take well over 100 ms each, cached ones over 1 ms.
func scheduleLen(w workload, dur time.Duration) int {
	if w.fresh {
		return int(dur.Seconds()*10) + 16
	}
	return int(dur.Seconds()*1000) + 1000
}

// timedPhase drives e for dur and verifies every session.
func timedPhase(e *env, dur time.Duration, tr *tracer) (*phase, summary, error) {
	ph, err := drive(e, dur, tr)
	if err != nil {
		return nil, summary{}, err
	}
	if err := verify(e.plan, ph.results); err != nil {
		return nil, summary{}, err
	}
	return ph, summarize(e.w, ph), nil
}

func runUntraced(out io.Writer, w workload, seed int64, dur time.Duration, dir string) error {
	e, setupS, err := setupRepeated(w, seed, scheduleLen(w, dur), dir, w.setupReps)
	if err != nil {
		return err
	}
	defer e.close()
	_, s, err := timedPhase(e, dur, nil)
	if err != nil {
		return err
	}
	printSummary(out, w, s)
	ms := endToEnd(s, setupS)
	printMetrics(out, ms)
	return finish(out, s, ms)
}

// finish writes the result line; a run with wrong output still prints
// it but fails.
func finish(out io.Writer, s summary, ms []metric) error {
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
	}
	if err := writeResult(out, s.wrong == 0, s.attempted, s.failed, ms); err != nil {
		return err
	}
	if s.wrong > 0 {
		return fmt.Errorf("%w: %d of %d sessions", errWrong, s.wrong, s.attempted)
	}
	return nil
}

// runTraced runs an untraced and a traced phase of the full length, on
// separate set-ups over the same inputs, then the layer replay, and
// prints the per-layer metrics.
func runTraced(out io.Writer, w workload, seed int64, dur time.Duration, dir, workdir string) error {
	p := makePlan(w, seed, scheduleLen(w, dur))

	e, err := setup(w, p, filepath.Join(dir, "untraced"), nil)
	if err != nil {
		return err
	}
	_, base, err := timedPhase(e, dur, nil)
	e.close()
	if err != nil {
		return err
	}
	if base.wrong > 0 {
		return fmt.Errorf("%w: %d of %d untraced sessions", errWrong, base.wrong, base.attempted)
	}

	tr := newTracer()
	e, err = setup(w, p, filepath.Join(dir, "traced"), tr.wrap)
	if err != nil {
		return err
	}
	tr.reset()
	ph, s, err := timedPhase(e, dur, tr)
	dirs := e.storeDirs()
	e.close()
	if err != nil {
		return err
	}
	frameCalls, frameNanos := tr.frameCalls.Load(), tr.frameNanos.Load()
	// The spans are written before the replay, whose Frame calls go
	// through the same wrapped sources but are not the server's.
	spans := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := tr.writeSpans(spans); err != nil {
		return err
	}
	lt, err := replayLayers(p, e.catalog, dirs, filepath.Join(dir, "replay"))
	if err != nil {
		return err
	}

	printSummary(out, w, s)
	fmt.Fprintf(out, "spans: %s\n", spans)
	lm := perLayer(out, w, ph, s, base, lt, frameCalls, frameNanos)
	printMetrics(out, lm)
	return finish(out, s, lm)
}
