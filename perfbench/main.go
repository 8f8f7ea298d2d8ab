// Command perfbench is the repository's end-to-end benchmark. It builds a
// StegFS volume for one workload, drives it with closed-loop clients for a
// fixed time, checks every output, and prints a metrics table followed by one
// JSON result line. With --trace 1 it also runs a traced window and reports
// where each operation's time went, layer by layer. NOTES.md describes the
// workloads, the metrics and the seed's breakdown.
//
//	bash perfbench/run.sh --workload hidden-read-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// clients is the number of closed-loop clients: each sends its next
// operation only when the previous one returned.
const clients = 2

// setups is how many volumes an untraced run builds and measures.
const setups = 5

// keepSpans bounds the spans each goroutine keeps for the span file; the
// per-layer sums cover every span regardless.
const keepSpans = 50000

func main() {
	name := flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = add a traced window and report per-layer metrics")
	dir := flag.String("dir", ".bench_build", "scratch directory for volume images and span files")
	profile := flag.String("cpuprofile", "", "write a CPU profile of the measured window to this file")
	flag.Parse()
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	e := env{seed: *seed, clients: clients, dir: *dir, profile: *profile}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*name, e, dur)
	} else {
		res, err = untracedRun(*name, e, dur)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// untracedRun builds the workload's volume `setups` times and measures a
// window of dur/setups on each. Every metric is the median over the windows
// and setup_s the median set-up time, so one slow volume or one slow stretch
// of the run moves them less.
func untracedRun(name string, e env, dur time.Duration) (*result, error) {
	var reports []*report
	for i := 0; i < setups; i++ {
		r, err := oneWindow(name, e, nil, dur/setups)
		if err != nil {
			return nil, err
		}
		printWindow(name, e, r)
		reports = append(reports, r)
	}
	ms := medians(reports)
	printMetrics(fmt.Sprintf("end to end, median over %d windows:", setups), ms)
	return newResult(ms, endToEndNames, reports...), nil
}

// tracedRun measures an untraced window and then a traced one, each on a
// fresh volume, and reports the per-layer metrics of the traced window with
// the tracing overhead between the two.
func tracedRun(name string, e env, dur time.Duration) (*result, error) {
	base, err := oneWindow(name, e, nil, dur)
	if err != nil {
		return nil, err
	}
	tr := newTracer(keepSpans)
	r, err := oneWindow(name, e, tr, dur)
	if err != nil {
		return nil, err
	}
	r.overhead = r.opsPerS()/base.opsPerS() - 1
	printWindow(name, e, r)
	printMetrics("end to end:", r.endToEnd())
	layers := r.perLayer()
	printMetrics("per layer:", layers)
	printBreakdown(r)
	path := filepath.Join(e.dir, "spans-"+name+".tsv")
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s (at most %d per goroutine)\n", path, keepSpans)
	return newResult(layers, perLayerNames, base, r), nil
}

// oneWindow sets the workload up on a fresh volume, measures one window and
// verifies the volume.
func oneWindow(name string, e env, tr *tracer, dur time.Duration) (*report, error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	defer w.close()
	runtime.GC()
	t0 := time.Now()
	if err := w.setup(tr); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setupS := time.Since(t0).Seconds()
	r, err := finish(w, measure(w, e, tr, dur, 0))
	if err != nil {
		return nil, err
	}
	r.setupS = setupS
	return r, nil
}

// newResult builds the JSON result line from the named metrics, counting the
// operations and checks of every report.
func newResult(ms []named, names []string, reports ...*report) *result {
	out := &result{Metrics: map[string]metric{}}
	for _, r := range reports {
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	out.Correct = out.Failed == 0
	for _, m := range ms {
		if slices.Contains(names, m.name) {
			out.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	return out
}

// finish measures space, verifies the volume and builds the report.
func finish(w workload, win *window) (*report, error) {
	occupied, live, rows, err := w.space()
	if err != nil {
		return nil, fmt.Errorf("space accounting: %w", err)
	}
	checked, failed, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	r := newReport(win)
	r.spaceBytes, r.rows = occupied, rows
	r.spaceAmp = float64(occupied) / float64(live)
	r.attempted += checked
	r.failed += failed
	return r, nil
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
