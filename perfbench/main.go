// Command perfbench is the RESCUE toolset's benchmark: three workloads
// over the campaign engine and the multi-run server, end-to-end metrics
// measured with tracing off, and a separate traced run for the
// per-layer metrics. perfbench/run.sh builds it and runs
//
//	perfbench run -workload holistic-registry -seed 1 -seconds 40 -trace 0
//
// which starts one process per sample, so every sample begins with the
// program's process-wide caches cold, and prints the run's record (with
// its cohort and provenance) and then, as the last line, the result:
// every end-to-end metric (or, with -trace 1, every per-layer metric)
// as the median over the run's samples. -workload all runs each
// workload in turn.
//
//	perfbench record -o perfbench/digests.json
//	perfbench compare old.json new.json
//
// record regenerates the stored output digests; compare sets two saved
// run records (-out) side by side and refuses two from different
// cohorts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench run|sample|record|compare [flags]")
		os.Exit(2)
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "run":
		err = runCmd(args)
	case "sample":
		err = sampleCmd(args)
	case "record":
		fs := flag.NewFlagSet("record", flag.ExitOnError)
		out := fs.String("o", "perfbench/digests.json", "digest file to write")
		fs.Parse(args)
		err = record(*out)
	case "compare":
		err = compareCmd(args)
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// sampleCmd runs one sample in this process and prints it as JSON. It
// is started by runCmd, never by hand.
func sampleCmd(args []string) error {
	fs := flag.NewFlagSet("sample", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	mode := fs.String("mode", "measure", "setup (set up and stop), measure, or trace")
	t0 := fs.Int64("t0", 0, "when the run started this process (Unix ns)")
	tmp := fs.String("tmp", "", "scratch directory")
	fs.Parse(args)
	start := time.Unix(0, *t0)
	ctx := context.Background()
	var (
		res *sampleResult
		err error
	)
	m, ok := sampleModes[*mode]
	switch {
	case !ok:
		err = fmt.Errorf("unknown sample mode %q", *mode)
	case *workload == holisticRegistry || *workload == reliabilitySweep:
		res, err = campaignSample(ctx, *workload, *seed, m, start)
	case *workload == serverMixed:
		res, err = serverSample(ctx, *seed, m, start, *tmp)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		return err
	}
	return writeJSONLine(os.Stdout, res)
}
