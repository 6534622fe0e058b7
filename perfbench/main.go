// Command perfbench is the service benchmark. It boots the parse
// service in-process behind a loopback listener, configured as
// ipg-serve is by default, drives one workload with one closed-loop
// client on one keep-alive connection, checks every answer, and prints
// one JSON result line last on standard output.
//
//	perfbench --workload recognize --seed 1 --seconds 10 --trace 0
//	perfbench --short            # every workload briefly, all checks on
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a traced run on the same
// seed and operation sequence. See README.md.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	known     int               // failed operations that are a known fault of the program
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	run      time.Duration
	trace    bool
	root     string // checkout root holding testdata/
	short    bool   // smaller inputs and fewer set-up repetitions
	log      *slog.Logger
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "checkout root (holds testdata/)")
		short    = flag.Bool("short", false, "run every workload briefly, untraced and traced, with all checks on")
	)
	flag.Parse()
	cfg := config{seed: *seed, run: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, root: *root,
		log: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))}
	if *short {
		if err := runShort(cfg, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.workload = *workload
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// runShort runs every workload for a moment, untraced and traced, and
// fails on any failed check other than a known fault of the program.
func runShort(cfg config, w io.Writer) error {
	cfg.short = true
	cfg.run = 300 * time.Millisecond
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg.workload, cfg.trace = name, traced
			res, err := run(cfg, w)
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", name, traced, err)
			}
			if !res.Correct || res.Failed > res.known {
				return fmt.Errorf("%s (trace %v): correct=%v, %d of %d operations failed, %d of them by a known fault",
					name, traced, res.Correct, res.Failed, res.Attempted, res.known)
			}
		}
	}
	return nil
}

func run(cfg config, w io.Writer) (result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "testdata", "SDF.sdf")); err != nil {
		return result{}, fmt.Errorf("grammar fixtures not found under %s: %w", cfg.root, err)
	}
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%v trace=%v GOMAXPROCS=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.run.Seconds(), cfg.trace, runtime.GOMAXPROCS(0), runtime.Version())
	if cfg.trace {
		return runTraced(cfg, wl, w)
	}
	return runTimed(cfg, wl, w)
}

// The timed phase runs in segments of whole rounds, with a calibration
// burst (calib.go) before each segment and after the last. Throughput
// and latency percentiles are taken per segment. The hypervisor takes
// the CPU away from the guest now and then; a segment in which that
// happened shows it as less CPU time per second of wall time for this
// process, whose one client keeps it equally busy in every segment. So
// the timings are the median over the half of the segments with the
// most CPU time per second, scaled by the calibration. Set-up runs
// setupReps times from an empty registry, spread between the segments,
// and setup_s is chosen the same way: the median of the half of the
// set-ups with the most CPU time per second, calibrated.
const (
	segments  = 60
	setupReps = 9
)

func runTimed(cfg config, wl workload, w io.Writer) (result, error) {
	nsegs, reps := segments, setupReps
	if cfg.short {
		nsegs, reps = 2, 2
	}
	cal, err := newCalibrator()
	if err != nil {
		return result{}, err
	}
	defer cal.close()
	// The first set-up serves the timed phase; the others build
	// throwaway instances between its segments.
	var setups []timing
	setup := func() (*instance, error) {
		runtime.GC() // every set-up starts from a collected heap
		cpu0, t0 := cpuTime(), time.Now()
		inst, err := startInstance(cfg, wl)
		d := time.Since(t0)
		setups = append(setups, timing{cpuShare: float64(cpuTime()-cpu0) / float64(d), v: []float64{d.Seconds()}})
		return inst, err
	}
	inst, err := setup()
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	correct := true
	if err := inst.checkReference(w); err != nil {
		fmt.Fprintln(w, "perfbench: warm-up answers failed their checks:", err)
		correct = false
	}
	residual := inst.residualAllocs()
	all := newRunStats()
	var segs []timing // throughput, p50, p90
	for i := 0; i < nsegs; i++ {
		if i > 0 && len(setups) < reps && i%(nsegs/reps) == 0 {
			extra, err := setup()
			if err != nil {
				return result{}, err
			}
			extra.close()
		}
		if err := cal.burst(); err != nil {
			return result{}, err
		}
		cpu0, wall0 := cpuTime(), time.Now()
		st := inst.timed(cfg.run/time.Duration(nsegs), nil)
		all.add(st)
		// One client waits for each reply, so operations per second of
		// operation time is the throughput.
		segs = append(segs, timing{cpuShare: float64(cpuTime()-cpu0) / float64(time.Since(wall0)),
			v: []float64{float64(st.lat.n) / st.lat.sum.Seconds(), st.lat.quantile(0.5), st.lat.quantile(0.9)}})
	}
	if err := cal.burst(); err != nil {
		return result{}, err
	}
	if err := inst.plan.after(inst.main); err != nil {
		fmt.Fprintln(w, "perfbench: after-run check failed:", err)
		correct = false
	}
	ops := float64(all.lat.n)
	scale := cal.scale()
	setupS, setupShares := steadiest(setups)
	seg, shares := steadiest(segs)
	wholeTput := ops / all.lat.sum.Seconds()
	fmt.Fprintf(w, "perfbench: attempted=%d failed=%d known_fault=%d rounds=%d residual_allocs_per_op=%.3f\n",
		all.lat.n, all.failed, all.known, all.rounds, residual)
	fmt.Fprintf(w, "perfbench: calibration scale=%.4f bursts_us %.2f\n", scale, cal.bursts)
	fmt.Fprintf(w, "perfbench: set-ups as measured, most CPU share first: cpu_share %.2f\n", setupShares)
	fmt.Fprintf(w, "perfbench: segments, most CPU share first: cpu_share %.2f\n", shares)
	fmt.Fprintf(w, "perfbench: as measured, kept set-ups and segments: setup_s=%.4f throughput=%.1f/s p50_us=%.1f p90_us=%.1f\n",
		setupS[0], seg[0], seg[1], seg[2])
	fmt.Fprintf(w, "perfbench: calibrated, kept segments: throughput=%.1f/s\n", seg[0]/scale)
	fmt.Fprintf(w, "perfbench: as measured, whole run: throughput=%.1f/s p50_us=%.1f p90_us=%.1f p99_us=%.1f\n",
		wholeTput, all.lat.quantile(0.5), all.lat.quantile(0.9), all.lat.quantile(0.99))
	fmt.Fprintf(w, "perfbench: calibrated, whole run: throughput=%.1f/s p50_us=%.1f p90_us=%.1f p99_us=%.1f\n",
		wholeTput/scale, all.lat.quantile(0.5)*scale, all.lat.quantile(0.9)*scale, all.lat.quantile(0.99)*scale)
	all.printKinds(w, scale)
	return result{
		Correct:   correct,
		Attempted: all.lat.n,
		Failed:    all.failed,
		known:     all.known,
		Metrics: map[string]metric{
			"setup_s":        {setupS[0] * scale, "s"},
			"latency_p50_us": {seg[1] * scale, "us"},
			"latency_p90_us": {seg[2] * scale, "us"},
			"allocs_per_op":  {float64(all.mallocs) / ops, "count"},
			"bytes_per_op":   {float64(all.bytes) / ops, "B"},
			"max_rss_mb":     {maxRSSMB(), "MB"},
		},
	}, nil
}

// timing is what one segment or set-up measured, with the CPU time the
// process got per second of wall time while it ran.
type timing struct {
	cpuShare float64
	v        []float64
}

// steadiest returns, for each measured value, its median over the half
// of ts with the largest CPU share, and every CPU share, largest first.
func steadiest(ts []timing) (medians, shares []float64) {
	ts = slices.Clone(ts)
	slices.SortFunc(ts, func(a, b timing) int { return cmp.Compare(b.cpuShare, a.cpuShare) })
	keep := ts[:(len(ts)+1)/2]
	for i := range ts[0].v {
		var xs []float64
		for _, t := range keep {
			xs = append(xs, t.v[i])
		}
		medians = append(medians, quantile(xs, 0.5))
	}
	for _, t := range ts {
		shares = append(shares, t.cpuShare)
	}
	return medians, shares
}

// quantile returns the q-quantile of xs, interpolating between ranks.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	x := q * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(x-float64(i))
}
