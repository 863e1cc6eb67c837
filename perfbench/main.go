// Command perfbench is the repository's benchmark: it runs one seeded
// workload against the engine's public entry points, checks every
// query's result against an independent oracle, and prints one JSON
// line of end-to-end metrics (or, with --trace 1, per-layer metrics
// derived from spans recorded around the calls into each layer).
//
//	bash perfbench/run.sh --workload etl-sort --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, metrics and steadiness results.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wlpm"
)

const (
	parallelism = 2 // worker parallelism of every operator
	setups      = 5 // set-ups per measuring process; setup_s is their median
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
}

func main() {
	name := flag.String("workload", "", "workload: etl-sort, star-join or serve-mix")
	seed := flag.Uint64("seed", 1, "input and query seed")
	seconds := flag.Float64("seconds", 30, "measured time; whole rounds run until it is used")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	child := flag.Bool("child", false, "measure in this process and print its raw figures (untraced runs start these)")
	flag.Parse()
	wl := findWorkload(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ctx := context.Background()
	d := time.Duration(*seconds * float64(time.Second))
	var out any
	var err error
	switch {
	case *trace == 1:
		out, err = tracedRun(ctx, wl, *seed, d)
	case *child:
		out, err = measure(ctx, wl, *seed, d)
	default:
		out, err = spawn(ctx, wl, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// instance is one set-up of a workload: a device with its tables
// loaded and analyzed, and the executor that runs queries on it.
type instance struct {
	sys    *wlpm.System
	sess   *wlpm.Session
	tables map[string]wlpm.Collection
	keys   map[string][]uint64
	ex     executor
	serve  *serveStack
}

func (in *instance) lookup(name string) (wlpm.Collection, error) {
	c, ok := in.tables[name]
	if !ok {
		return nil, fmt.Errorf("unknown table %q", name)
	}
	return c, nil
}

func (in *instance) close() error {
	if in.serve != nil {
		return in.serve.close()
	}
	return nil
}

// setUp opens the device, generates and loads the tables, analyzes them
// and, for a remote workload, starts the server: everything setup_s
// times.
func setUp(wl *workload, seed uint64, tr *tracer) (*instance, error) {
	sys, err := wlpm.New(wlpm.WithCapacity(deviceBytes), wlpm.WithParallelism(parallelism),
		wlpm.WithMemoryBudget(wl.grant))
	if err != nil {
		return nil, err
	}
	in := &instance{sys: sys, tables: make(map[string]wlpm.Collection), keys: wl.tables(seed)}
	names := make([]string, 0, len(in.keys))
	for name := range in.keys {
		names = append(names, name)
	}
	sort.Strings(names)
	rec := make([]byte, recBytes)
	for _, name := range names {
		c, err := sys.Create(name)
		if err != nil {
			return nil, err
		}
		keys := in.keys[name]
		sp := tr.begin("storage.load", 0, 0)
		for _, k := range keys {
			encodeRecord(rec, k)
			if err := c.Append(rec); err != nil {
				return nil, fmt.Errorf("load %s: %w", name, err)
			}
		}
		err = c.Close()
		tr.end(sp)
		tr.add("storage.loaded", float64(len(keys)))
		if err != nil {
			return nil, err
		}
		if c.Len() != len(keys) {
			return nil, fmt.Errorf("load %s: %d records stored, %d appended", name, c.Len(), len(keys))
		}
		sp = tr.begin("stats.collect", 0, 0)
		_, err = sys.Collect(c)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", name, err)
		}
		in.tables[name] = c
	}
	in.sess = sys.Session(wlpm.WithSessionBudget(wl.grant))
	if wl.remote {
		in.serve, err = startServe(sys, in.tables, wl.grant)
		if err != nil {
			return nil, err
		}
		in.ex = in.serve
	} else {
		in.ex = &localExec{sys: sys, sess: in.sess, lookup: in.lookup}
	}
	return in, nil
}

// counts is the device traffic of one query, which must repeat exactly.
type counts struct {
	reads, writes uint64
	modelled      time.Duration
}

func countsOf(s wlpm.Stats) counts {
	return counts{reads: s.Reads, writes: s.Writes, modelled: s.SimIOOverlap + s.SoftTime}
}

// runner replays a workload's round and tallies what it sees.
type runner struct {
	wl        *workload
	in        *instance
	round     []*prepared
	ref       []*counts // each round query's counts at its first run
	buf       []byte
	qid       int64
	attempted int
	failed    int
	wrong     int // failures whose output differed from the oracle
	drift     int // runs whose counts differed from the first run's
	explains  map[string]*wlpm.QueryExplain
	logged    int
}

// sample is one measured query.
type sample struct {
	shape string
	o     outcome
	// Go heap allocation and GC cycles during the query, traced runs only.
	allocBytes, gcs uint64
}

func (r *runner) logf(format string, args ...any) {
	if r.logged < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
	r.logged++
}

// once runs round query i, checks it against the oracle and the
// determinism reference, and reports whether it succeeded.
func (r *runner) once(ctx context.Context, i int, tr *tracer, s *sample) bool {
	q := r.round[i]
	r.qid++
	r.attempted++
	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	o, buf, err := r.in.ex.run(ctx, q, r.qid, tr, r.buf[:0])
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.allocBytes = after.TotalAlloc - before.TotalAlloc
		s.gcs = uint64(after.NumGC - before.NumGC)
	}
	r.buf = buf
	if err != nil {
		r.failed++
		r.logf("query %d (%s) failed: %v", i, q.shape, err)
		return false
	}
	if err := check(buf, o.recSize, q.exp); err != nil {
		r.failed++
		r.wrong++
		r.logf("query %d (%s) differs from the oracle: %v [%s]", i, q.shape, err, q.dsl)
		return false
	}
	c := countsOf(o.dev)
	if ref := r.ref[i]; ref == nil {
		r.ref[i] = &c
	} else if *ref != c {
		r.drift++
		r.logf("determinism: query %d (%s) counts changed between rounds: reads %d→%d, writes %d→%d, modelled %v→%v",
			i, q.shape, ref.reads, c.reads, ref.writes, c.writes, ref.modelled, c.modelled)
	}
	if o.explain != nil {
		r.explains[q.shape] = o.explain
	}
	s.shape, s.o = q.shape, o
	return true
}

// replay runs whole rounds until d has elapsed (at least one round) and
// returns the successful queries.
func (r *runner) replay(ctx context.Context, d time.Duration, tr *tracer) []sample {
	var out []sample
	start := time.Now()
	for {
		for i := range r.round {
			var s sample
			if r.once(ctx, i, tr, &s) {
				out = append(out, s)
			}
		}
		if time.Since(start) >= d {
			return out
		}
	}
}

// prepare sets the workload up (setups times; the last set-up is kept)
// and computes the oracle's answers to its round.
func prepare(wl *workload, seed uint64, tr *tracer) (*runner, []float64, error) {
	var in *instance
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, nil, err
			}
			in = nil
		}
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		in, err = setUp(wl, seed, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	o := &oracle{tables: in.keys}
	r := &runner{wl: wl, in: in, explains: make(map[string]*wlpm.QueryExplain)}
	for _, q := range wl.round(newRNG(seed, 2)) {
		exp, err := o.eval(q)
		if err != nil {
			in.close() //nolint:errcheck // the oracle's error is the one to report
			return nil, nil, err
		}
		r.round = append(r.round, &prepared{query: q, dsl: q.dsl(), exp: exp})
	}
	r.ref = make([]*counts, len(r.round))
	return r, setupTimes, nil
}

// processes is how many processes an untraced run measures in, one
// after another, each for an equal share of the time. Separate
// processes on one host differ by several percent on identical work,
// and the host's speed drifts over seconds (CPU steal on a shared
// machine); a run's timings are the median of its processes', so one
// process caught in a slow spell does not move them.
const processes = 5

// measured is the raw figures of one measuring process.
type measured struct {
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Wrong      int       `json:"wrong"`
	LatencyNs  []int64   `json:"latency_ns"`
	Reads      uint64    `json:"reads"`
	Writes     uint64    `json:"writes"`
	ModelledNs int64     `json:"modelled_ns"`
	SetupS     []float64 `json:"setup_s"`
	PeakRSSMiB float64   `json:"peak_rss_mib"`
}

// measure sets up, runs a warm-up round, then replays whole rounds for d.
func measure(ctx context.Context, wl *workload, seed uint64, d time.Duration) (*measured, error) {
	r, setupTimes, err := prepare(wl, seed, nil)
	if err != nil {
		return nil, err
	}
	defer r.in.close()    //nolint:errcheck // the run's own errors are the ones to report
	r.replay(ctx, 0, nil) // warm-up round: fills caches, sets the determinism reference
	samples := r.replay(ctx, d, nil)
	logShapes(samples)
	m := &measured{Attempted: r.attempted, Failed: r.failed, Wrong: r.wrong, SetupS: setupTimes, PeakRSSMiB: peakRSS()}
	for _, s := range samples {
		m.LatencyNs = append(m.LatencyNs, int64(s.o.lat))
		m.Reads += s.o.dev.Reads
		m.Writes += s.o.dev.Writes
		m.ModelledNs += int64(s.o.dev.SimIOOverlap + s.o.dev.SoftTime)
	}
	return m, nil
}

// spawn measures in child processes of this program, one at a time,
// and merges their figures.
func spawn(ctx context.Context, wl *workload, seed uint64, d time.Duration) (*result, error) {
	var runs []*measured
	for i := 0; i < processes; i++ {
		cmd := exec.CommandContext(ctx, os.Args[0], "--workload", wl.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(d.Seconds()/processes, 'g', -1, 64), "--child")
		cmd.Stderr = os.Stderr
		// The measuring process dies with this one.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("measuring process: %w", err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		m := new(measured)
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), m); err != nil {
			return nil, fmt.Errorf("measuring process output: %w", err)
		}
		runs = append(runs, m)
	}
	return endToEnd(runs)
}

// tracedRun is a traced run: half its time untraced, then half with
// tracing on (the difference is the tracing overhead), then the kernel
// probes. It reports the per-layer metrics and writes the trace.
func tracedRun(ctx context.Context, wl *workload, seed uint64, d time.Duration) (*result, error) {
	tr := newTracer()
	r, _, err := prepare(wl, seed, tr)
	if err != nil {
		return nil, err
	}
	defer r.in.close() //nolint:errcheck // the run's own errors are the ones to report
	r.replay(ctx, 0, nil)
	plain := r.replay(ctx, d/2, nil)
	var before *serverSnapshot
	if st := r.in.serve; st != nil {
		st.tr.Store(tr)
		if before, err = snapshotServer(ctx, st); err != nil {
			return nil, err
		}
	}
	samples := r.replay(ctx, d/2, tr)
	m, err := r.perLayer(ctx, tr, samples, plain, before)
	if err != nil {
		return nil, err
	}
	path := fmt.Sprintf(".bench_build/traces/%s-seed%d.json", wl.name, seed)
	if err := tr.write(path, map[string]any{"workload": wl.name, "seed": seed, "queries": len(samples)}); err != nil {
		return nil, err
	}
	return &result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// endToEnd merges the measuring processes' figures: timings are the
// median over the processes, counts are pooled.
func endToEnd(runs []*measured) (*result, error) {
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	var qps, p50, setup, rss []float64
	var n, reads, writes, modelled int64
	for _, m := range runs {
		if len(m.LatencyNs) == 0 {
			return nil, errors.New("no query succeeded")
		}
		res.Correct = res.Correct && m.Wrong == 0
		res.Attempted += m.Attempted
		res.Failed += m.Failed
		lat := make([]float64, len(m.LatencyNs))
		var total float64
		for i, ns := range m.LatencyNs {
			lat[i] = float64(ns) / 1e6
			total += lat[i]
		}
		qps = append(qps, float64(len(lat))/(total/1e3))
		p50 = append(p50, quantile(lat, 0.5))
		setup = append(setup, m.SetupS...)
		rss = append(rss, m.PeakRSSMiB)
		n += int64(len(lat))
		reads += int64(m.Reads)
		writes += int64(m.Writes)
		modelled += m.ModelledNs
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("queries_per_s", "q/s", quantile(qps, 0.5))
	put("latency_p50_ms", "ms", quantile(p50, 0.5))
	// One division of exact integer totals each: the same rounds give
	// the same bits however many of them ran.
	put("cachelines_written_per_query", "cachelines", float64(writes)/float64(n))
	put("cachelines_read_per_query", "cachelines", float64(reads)/float64(n))
	put("modelled_ms_per_query", "ms", float64(modelled)/(1e6*float64(n)))
	put("setup_s", "s", quantile(setup, 0.5))
	put("peak_rss_mb", "MiB", quantile(rss, 0.5))
	return res, nil
}

// logShapes prints each query shape's latency quartiles to stderr.
func logShapes(samples []sample) {
	by := make(map[string][]float64)
	plans := make(map[string]map[string]int)
	for _, s := range samples {
		by[s.shape] = append(by[s.shape], float64(s.o.lat)/1e6)
		if ex := s.o.explain; ex != nil {
			var choices []string
			for _, c := range ex.Choices {
				choices = append(choices, fmt.Sprintf("%s:%s@%d", c.Operator, c.Algorithm, c.Share))
			}
			if plans[s.shape] == nil {
				plans[s.shape] = make(map[string]int)
			}
			plans[s.shape][strings.Join(choices, " ")]++
		}
	}
	shapes := make([]string, 0, len(by))
	for shape := range by {
		shapes = append(shapes, shape)
	}
	sort.Strings(shapes)
	for _, shape := range shapes {
		v := by[shape]
		fmt.Fprintf(os.Stderr, "perfbench: %-8s n=%-5d p25 %.3f ms  p50 %.3f ms  p75 %.3f ms  p90 %.3f ms\n",
			shape, len(v), quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75), quantile(v, 0.9))
		for plan, n := range plans[shape] {
			fmt.Fprintf(os.Stderr, "perfbench:   %dx %s\n", n, plan)
		}
	}
}

// quantile interpolates linearly between the closest ranks.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSS is the process's resident-set high-water mark in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
