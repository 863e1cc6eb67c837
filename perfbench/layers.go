package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"wlpm"
	"wlpm/internal/algo"
	"wlpm/internal/joins"
	"wlpm/internal/server"
	"wlpm/internal/sorts"
	"wlpm/internal/storage"
)

const probeReps = 3 // kernel probes run this often; their medians are reported

// serverSnapshot is the server-side state a traced run diffs.
type serverSnapshot struct {
	tenant server.TenantMetrics
	wire   int64
}

func snapshotServer(ctx context.Context, st *serveStack) (*serverSnapshot, error) {
	m, err := st.metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &serverSnapshot{tenant: m, wire: st.wire.Load()}, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// perLayer derives the per-layer metrics of a traced run from its spans,
// boundary counters, the queries' device deltas and Explains, and the
// kernel probes. plain holds the same run's untraced queries.
func (r *runner) perLayer(ctx context.Context, tr *tracer, samples, plain []sample, before *serverSnapshot) (map[string]metric, error) {
	m := make(map[string]metric)
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	n := float64(len(samples))
	var dev wlpm.Stats
	var alloc, gcs uint64
	var planCost, spilled, replanned, traced, untraced float64
	for _, s := range samples {
		dev = dev.Add(s.o.dev)
		alloc += s.allocBytes
		gcs += s.gcs
		traced += float64(s.o.lat)
		if ex := s.o.explain; ex != nil {
			planCost += ex.PlanCost
			for _, c := range ex.Choices {
				if c.Spilled {
					spilled++
				}
				if c.Replanned {
					replanned++
				}
			}
		}
	}
	plainLat := make([]float64, len(plain))
	for i, s := range plain {
		untraced += float64(s.o.lat)
		plainLat[i] = ms(s.o.lat)
	}
	// The tail is reported here, from the untraced half, rather than as
	// an end-to-end metric: CPU steal on the shared host moves it by
	// 30–40% between runs of identical code.
	put("latency.p90_ms", "ms", quantile(plainLat, 0.9))
	put("pmem.read_ops_per_query", "count", float64(dev.ReadOps)/n)
	put("pmem.write_ops_per_query", "count", float64(dev.WriteOps)/n)
	overlap := 1.0
	if dev.SimIOTime > 0 {
		overlap = float64(dev.SimIOOverlap) / float64(dev.SimIOTime)
	}
	put("pmem.overlap_ratio", "ratio", overlap)
	put("storage.load_ns_per_record", "ns", float64(tr.total("storage.load"))/tr.counter("storage.loaded"))
	put("storage.close_ms_per_query", "ms", ms(tr.total("storage.close"))/n)
	put("stats.collect_ms", "ms", ms(tr.total("stats.collect"))/setups)
	put("exec.plan_ms_per_query", "ms", ms(tr.total("exec.plan"))/n)
	put("exec.open_ms_per_query", "ms", ms(tr.total("exec.open"))/n)
	put("exec.next_ns_per_row", "ns", ratio(tr.counter("exec.next_ns"), tr.counter("exec.rows")))
	put("exec.spilled_per_query", "count", spilled/n)
	put("exec.replanned_per_query", "count", replanned/n)
	// The planner prices in block-sized buffers; the device counts
	// cachelines.
	d := r.in.sys.Device()
	perBuffer := float64(storage.DefaultBlockSize / d.CachelineSize())
	measured := (float64(dev.Reads) + d.Lambda()*float64(dev.Writes)) / perBuffer
	put("cost.predicted_to_measured", "ratio", planCost/measured)
	put("runtime.alloc_bytes_per_query", "B", float64(alloc)/n)
	put("runtime.gc_cycles_per_query", "count", float64(gcs)/n)
	put("trace.overhead_ratio", "ratio", traced/n/(untraced/float64(len(plain)))-1)
	put("determinism.mismatched_queries", "count", float64(r.drift))

	var admit, gate, handler, encode, wire, header, clientNext float64
	if st := r.in.serve; st != nil {
		after, err := snapshotServer(ctx, st)
		if err != nil {
			return nil, err
		}
		admit = float64(after.tenant.AdmitWaitMs-before.tenant.AdmitWaitMs) / n
		gate = float64(after.tenant.GateWaitMs-before.tenant.GateWaitMs) / n
		handler = ms(tr.total("server.handler")) / n
		encode = (ms(tr.self("server.handler")) - tr.counter("exec.next_ns")/1e6) / n
		rows := tr.counter("client.rows")
		wire = ratio(float64(after.wire-before.wire), rows)
		header = ms(tr.total("client.open")) / n
		clientNext = ratio(float64(tr.total("client.drain")), rows)
	}
	put("broker.admit_wait_ms_per_query", "ms", admit)
	put("server.gate_wait_ms_per_query", "ms", gate)
	put("server.handler_ms_per_query", "ms", handler)
	put("server.encode_ms_per_query", "ms", encode)
	put("server.wire_bytes_per_row", "B", wire)
	put("client.first_header_ms", "ms", header)
	put("client.next_ns_per_row", "ns", clientNext)

	if err := r.probes(ctx, put); err != nil {
		return nil, err
	}
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probes times the storage scan and replays the operators the planner
// chose for the workload's shapes directly on the kernels, at the chosen
// algorithm and memory share, under a phase recorder. Every probe's
// output is checked against the oracle.
func (r *runner) probes(ctx context.Context, put func(name, unit string, v float64)) error {
	scan, err := r.scanProbe()
	if err != nil {
		return err
	}
	put("storage.scan_ns_per_record", "ns", scan)

	var sortMs, mergeMs, sortWrites float64
	if q := r.first(r.wl.sortShape); q != nil {
		if sortMs, mergeMs, sortWrites, err = r.sortProbe(ctx, q); err != nil {
			return fmt.Errorf("sort probe: %w", err)
		}
	}
	put("sorts.sort_ms", "ms", sortMs)
	put("sorts.final_merge_ms", "ms", mergeMs)
	put("sorts.run_formation_ms", "ms", sortMs-mergeMs)
	put("sorts.writes_per_record", "cachelines", sortWrites)

	var joinMs, buildMs, joinWrites float64
	if q := r.first(r.wl.joinShape); q != nil {
		if joinMs, buildMs, joinWrites, err = r.joinProbe(ctx, q); err != nil {
			return fmt.Errorf("join probe: %w", err)
		}
	}
	put("joins.join_ms", "ms", joinMs)
	put("joins.build_ms", "ms", buildMs)
	put("joins.partition_probe_ms", "ms", joinMs-buildMs)
	put("joins.writes_per_input_record", "cachelines", joinWrites)

	var aggMs float64
	if q := r.first(r.wl.aggShape); q != nil {
		if aggMs, err = r.aggProbe(ctx, q); err != nil {
			return fmt.Errorf("aggregate probe: %w", err)
		}
	}
	put("aggregate.groupby_ms", "ms", aggMs)
	return nil
}

// first is the round's first query of the shape, nil for none.
func (r *runner) first(shape string) *prepared {
	for _, q := range r.round {
		if shape != "" && q.shape == shape {
			return q
		}
	}
	return nil
}

// choice is the planner's choice for operator op in the shape's last
// Explain.
func (r *runner) choice(shape, op string) (algorithm string, share int64, err error) {
	ex := r.explains[shape]
	if ex == nil {
		return "", 0, fmt.Errorf("no Explain for %s", shape)
	}
	for _, c := range ex.Choices {
		if c.Operator == op {
			return c.Algorithm, c.Share, nil
		}
	}
	return "", 0, fmt.Errorf("no %s in the plan", op)
}

// scanProbe streams every table through the storage iterator.
func (r *runner) scanProbe() (float64, error) {
	var per []float64
	for rep := 0; rep < probeReps; rep++ {
		var d time.Duration
		var recs int
		for _, c := range r.in.tables {
			t0 := time.Now()
			it := c.Scan()
			for {
				_, err := it.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					it.Close() //nolint:errcheck // the scan error is the one to report
					return 0, err
				}
				recs++
			}
			if err := it.Close(); err != nil {
				return 0, err
			}
			d += time.Since(t0)
		}
		per = append(per, float64(d)/float64(recs))
	}
	return quantile(per, 0.5), nil
}

// materialize returns q's input table when q only scans it, and
// otherwise runs q into a new collection.
func (r *runner) materialize(ctx context.Context, name string, q query) (wlpm.Collection, error) {
	if len(q.where) == 0 && q.join == "" && q.project == nil && q.aggAttr < 0 {
		return r.in.tables[q.table], nil
	}
	pq, err := r.in.sess.ParseQuery(q.dsl(), r.in.lookup)
	if err != nil {
		return nil, err
	}
	width := numAttrs
	switch {
	case q.project != nil:
		width = len(q.project)
	case q.join != "":
		width = 2 * numAttrs
	}
	out, err := r.in.sess.CreateSized(name, width*8)
	if err != nil {
		return nil, err
	}
	if _, err := pq.RunCtx(ctx, out); err != nil {
		return nil, err
	}
	return out, out.Close()
}

// checkCollection compares a probe's output with the oracle's answer.
func (r *runner) checkCollection(c wlpm.Collection, q query) error {
	exp, err := (&oracle{tables: r.in.keys}).eval(q)
	if err != nil {
		return err
	}
	got := make([]byte, 0, c.Len()*c.RecordSize())
	it := c.Scan()
	defer it.Close()
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		got = append(got, rec...)
	}
	return check(got, c.RecordSize(), exp)
}

// kernelRun times one direct kernel call under a phase recorder and
// returns its wall time, the named phase's wall time and the cachelines
// it wrote.
func (r *runner) kernelRun(ctx context.Context, share int64, phase string, call func(env *wlpm.Env) error) (wall, phaseWall time.Duration, writes uint64, err error) {
	rec := algo.NewPhaseRecorder()
	env := r.in.sys.NewEnv(share).WithContext(ctx).WithPhases(rec)
	dev := r.in.sys.Device()
	before := dev.Stats()
	t0 := time.Now()
	if err := call(env); err != nil {
		env.SweepTemps() //nolint:errcheck // the kernel's error is the one to report
		return 0, 0, 0, err
	}
	wall = time.Since(t0)
	return wall, rec.Phase(phase).Wall, dev.Stats().Sub(before).Writes, nil
}

// sortProbe sorts the input of q's ORDER BY with the chosen algorithm.
func (r *runner) sortProbe(ctx context.Context, q *prepared) (sortMs, mergeMs, writesPerRec float64, err error) {
	name, share, err := r.choice(q.shape, "OrderBy")
	if err != nil {
		return 0, 0, 0, err
	}
	alg, err := sortAlgorithm(name)
	if err != nil {
		return 0, 0, 0, err
	}
	inQ := q.query
	inQ.orderBy, inQ.limit = false, 0
	in, err := r.materialize(ctx, "probe.sortin", inQ)
	if err != nil {
		return 0, 0, 0, err
	}
	var walls, merges []float64
	var writes uint64
	for rep := 0; rep < probeReps; rep++ {
		out, err := r.in.sys.Create(fmt.Sprintf("probe.sorted%d", rep))
		if err != nil {
			return 0, 0, 0, err
		}
		wall, merge, w, err := r.kernelRun(ctx, share, sorts.FinalMergePhase, func(env *wlpm.Env) error { return alg.Sort(env, in, out) })
		if err != nil {
			return 0, 0, 0, err
		}
		sortedQ := inQ
		sortedQ.orderBy = true
		if err := r.checkCollection(out, sortedQ); err != nil {
			return 0, 0, 0, fmt.Errorf("%s output: %w", name, err)
		}
		if err := out.Destroy(); err != nil {
			return 0, 0, 0, err
		}
		walls, merges, writes = append(walls, ms(wall)), append(merges, ms(merge)), w
	}
	return quantile(walls, 0.5), quantile(merges, 0.5), float64(writes) / float64(in.Len()), nil
}

// joinProbe joins q's filtered build side with its probe table using
// the chosen algorithm.
func (r *runner) joinProbe(ctx context.Context, q *prepared) (joinMs, buildMs, writesPerRec float64, err error) {
	name, share, err := r.choice(q.shape, "Join")
	if err != nil {
		return 0, 0, 0, err
	}
	alg, err := joinAlgorithm(name)
	if err != nil {
		return 0, 0, 0, err
	}
	left, err := r.materialize(ctx, "probe.build", query{table: q.table, where: q.where, aggAttr: -1})
	if err != nil {
		return 0, 0, 0, err
	}
	right := r.in.tables[q.join]
	var walls, builds []float64
	var writes uint64
	for rep := 0; rep < probeReps; rep++ {
		out, err := r.in.sys.CreateSized(fmt.Sprintf("probe.joined%d", rep), 2*recBytes)
		if err != nil {
			return 0, 0, 0, err
		}
		wall, build, w, err := r.kernelRun(ctx, share, joins.BuildPhase, func(env *wlpm.Env) error { return alg.Join(env, left, right, out) })
		if err != nil {
			return 0, 0, 0, err
		}
		if err := r.checkCollection(out, query{table: q.table, where: q.where, join: q.join, aggAttr: -1}); err != nil {
			return 0, 0, 0, fmt.Errorf("%s output: %w", name, err)
		}
		if err := out.Destroy(); err != nil {
			return 0, 0, 0, err
		}
		walls, builds, writes = append(walls, ms(wall)), append(builds, ms(build)), w
	}
	return quantile(walls, 0.5), quantile(builds, 0.5), float64(writes) / float64(left.Len()+right.Len()), nil
}

// aggProbe runs q's GROUP BY alone over its materialized input, through
// the session so the planner makes the same choice as in the workload.
func (r *runner) aggProbe(ctx context.Context, q *prepared) (float64, error) {
	inQ := q.query
	inQ.aggAttr, inQ.groups, inQ.orderBy, inQ.limit = -1, 0, false, 0
	in, err := r.materialize(ctx, "probe.aggin", inQ)
	if err != nil {
		return 0, err
	}
	r.in.tables["probe.aggin"] = in
	defer delete(r.in.tables, "probe.aggin")
	gq := query{table: "probe.aggin", aggAttr: q.aggAttr, groups: q.groups}
	want := q.query
	want.orderBy, want.limit = false, 0
	exp, err := (&oracle{tables: r.in.keys}).eval(want)
	if err != nil {
		return 0, err
	}
	p := &prepared{query: gq, dsl: gq.dsl(), exp: exp}
	var walls []float64
	for rep := 0; rep < probeReps; rep++ {
		o, buf, err := r.in.ex.run(ctx, p, 0, nil, r.buf[:0])
		r.buf = buf
		if err != nil {
			return 0, err
		}
		if err := check(buf, o.recSize, exp); err != nil {
			return 0, fmt.Errorf("group-by output: %w", err)
		}
		walls = append(walls, ms(o.lat))
	}
	return quantile(walls, 0.5), nil
}

// sortAlgorithm rebuilds a sort algorithm from its Explain name, such as
// "ExMS" or "SegS(0.31)".
func sortAlgorithm(name string) (wlpm.SortAlgorithm, error) {
	base, x, err := knobs(name)
	if err != nil {
		return nil, err
	}
	switch {
	case base == "ExMS" && len(x) == 0:
		return wlpm.ExternalMergeSort(), nil
	case base == "SelS" && len(x) == 0:
		return wlpm.SelectionSort(), nil
	case base == "LaS" && len(x) == 0:
		return wlpm.LazySort(), nil
	case base == "SegS" && x == nil:
		return wlpm.AutoSegmentSort(), nil
	case base == "SegS" && len(x) == 1:
		return wlpm.SegmentSort(x[0]), nil
	case base == "HybS" && len(x) == 1:
		return wlpm.HybridSort(x[0]), nil
	}
	return nil, fmt.Errorf("unknown sort algorithm %q", name)
}

// joinAlgorithm rebuilds a join algorithm from its Explain name, such as
// "GJ" or "HybJ(0.20,0.30)".
func joinAlgorithm(name string) (wlpm.JoinAlgorithm, error) {
	base, x, err := knobs(name)
	if err != nil {
		return nil, err
	}
	switch {
	case base == "NLJ" && len(x) == 0:
		return wlpm.NestedLoopsJoin(), nil
	case base == "HJ" && len(x) == 0:
		return wlpm.HashJoin(), nil
	case base == "GJ" && len(x) == 0:
		return wlpm.GraceJoin(), nil
	case base == "LaJ" && len(x) == 0:
		return wlpm.LazyHashJoin(), nil
	case base == "SegJ" && len(x) == 1:
		return wlpm.SegmentedGraceJoin(x[0]), nil
	case base == "HybJ" && x == nil:
		return wlpm.AutoHybridJoin(), nil
	case base == "HybJ" && len(x) == 2:
		return wlpm.HybridJoin(x[0], x[1]), nil
	}
	return nil, fmt.Errorf("unknown join algorithm %q", name)
}

// knobs splits "Name(a,b)" into its name and knob values; "(auto)"
// yields nil knobs, no parentheses an empty slice.
func knobs(name string) (string, []float64, error) {
	base, args, ok := strings.Cut(name, "(")
	if !ok {
		return name, []float64{}, nil
	}
	args = strings.TrimSuffix(args, ")")
	if args == "auto" {
		return base, nil, nil
	}
	var x []float64
	for _, a := range strings.Split(args, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(a), 64)
		if err != nil {
			return "", nil, fmt.Errorf("algorithm %q: %w", name, err)
		}
		x = append(x, v)
	}
	return base, x, nil
}
