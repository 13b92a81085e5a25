//go:build linux

// Command bench is the stmkvd perf ledger: it builds cmd/stmkvd from the
// working tree, boots it as a real child process per workload, drives it
// (and, for the end-to-end numbers, a do-nothing yardstick server beside
// it) from one generator process, checks what came back and prints every
// metric by name. See README.md for the workloads, the metrics and how a
// result is meant to be read.
//
//	go run ./bench -seed 1                       # all four workloads, end to end
//	go run ./bench -seed 1 -trace 1              # per-layer metrics and span files
//	go run ./bench -workload read-bin -seed 7    # one workload
//	go run ./bench compare dirA dirB             # A/A or parent-vs-change verdicts
//	bench yardstick                              # the reference server (started by the runs themselves)
//
// The last line of standard output is one JSON object (correct, attempted,
// failed, metrics); the exit status is 0 only if every correctness check
// passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// resultFile is what a run writes to disk and what compare reads back.
type resultFile struct {
	Seed      uint64    `json:"seed"`
	Seconds   int       `json:"seconds"`
	Trace     bool      `json:"trace"`
	Workloads []*result `json:"workloads"`
	// Claim is always null: the benchmark measures, it never claims a gain.
	Claim *string `json:"claim"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "yardstick" {
		os.Exit(yardstickMain())
	}
	var (
		workload = flag.String("workload", "all", "workload to run: read-bin, write-wal, storm-tuned, mixed-http or all")
		seed     = flag.Uint64("seed", 1, "workload seed: the op stream is a pure function of workload and seed")
		seconds  = flag.Int("seconds", defaultSeconds, "measured seconds per workload (trace 0: warm 4/24, duet 20/24; trace 1: warm 5/24, open 15/24, sat 4/24)")
		trace    = flag.Int("trace", 0, "1: report the per-layer metrics (scraped and traced) instead of the end-to-end ones")
		out      = flag.String("out", filepath.Join(outDir, "result.json"), "where to write the result document")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 4 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s>=4] [-trace 0|1] | bench compare A B")
		os.Exit(2)
	}
	os.Exit(runMain(*workload, *seed, *seconds, *trace == 1, *out))
}

func runMain(workload string, seed uint64, seconds int, trace bool, out string) int {
	var todo []*spec
	if workload == "all" {
		for i := range specs {
			todo = append(todo, &specs[i])
		}
	} else if sp := specByName(workload); sp != nil {
		todo = []*spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workload)
		return 2
	}
	if _, err := os.Stat("cmd/stmkvd"); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root (cmd/stmkvd not found)")
		return 2
	}
	// The generator's share of a two-core box is fixed, not inherited.
	runtime.GOMAXPROCS(2)

	// Nothing the command starts may outlive it: not on a signal, not on
	// a wedged server.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	watchdog := time.After(time.Duration(len(todo)) * (time.Duration(seconds)*time.Second + 150*time.Second))
	go func() {
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "bench: interrupted")
		case <-watchdog:
			fmt.Fprintln(os.Stderr, "bench: run exceeded its time budget")
		}
		reapAll()
		os.Exit(3)
	}()

	if err := os.MkdirAll(filepath.Join(outDir, "bin"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bin, buildTook, err := buildServer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	doc := resultFile{Seed: seed, Seconds: seconds, Trace: trace}
	for _, sp := range todo {
		res, err := runWorkload(sp, seed, seconds, trace, bin, buildTook.Seconds())
		if err != nil {
			reapAll()
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		fmt.Print(summaryLines(res))
		doc.Workloads = append(doc.Workloads, res)
	}
	if n := reapAll(); n > 0 {
		last := doc.Workloads[len(doc.Workloads)-1]
		last.violate("%d server processes outlived their run and had to be killed", n)
		last.Correct = false
	}
	if err := writeJSON(out, doc); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	// The driver's line: one object, last on standard output.
	line := struct {
		Correct   bool    `json:"correct"`
		Attempted uint64  `json:"attempted"`
		Failed    uint64  `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{Correct: true, Metrics: metrics{}}
	for _, r := range doc.Workloads {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		prefix := ""
		if len(doc.Workloads) > 1 {
			prefix = r.Workload + "/"
		}
		for name, m := range r.EndToEnd {
			line.Metrics[prefix+name] = m
		}
		for name, m := range r.PerLayer {
			line.Metrics[prefix+name] = m
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
