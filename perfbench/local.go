package main

import (
	"context"
	"fmt"
	"time"

	"wlpm"
)

// outcome is what one query execution reports besides its rows.
type outcome struct {
	lat     time.Duration
	dev     wlpm.Stats // device counters charged while the query ran
	recSize int
	explain *wlpm.QueryExplain // with actuals, after the stream ended
}

// executor runs one query and appends its records to buf.
type executor interface {
	run(ctx context.Context, q *prepared, qid int64, tr *tracer, buf []byte) (outcome, []byte, error)
}

// prepared is a query of the round with its DSL text rendered once.
type prepared struct {
	query
	dsl string
	exp *expected
}

// localExec runs queries in-process through a façade session.
type localExec struct {
	sys    *wlpm.System
	sess   *wlpm.Session
	lookup func(name string) (wlpm.Collection, error)
}

func (l *localExec) run(ctx context.Context, q *prepared, qid int64, tr *tracer, buf []byte) (outcome, []byte, error) {
	var o outcome
	dev := l.sys.Device()
	before := dev.Stats()
	t0 := time.Now()
	root := tr.begin("query", 0, qid)
	sp := tr.begin("exec.parse", root, qid)
	pq, err := l.sess.ParseQuery(q.dsl, l.lookup)
	tr.end(sp)
	if err != nil {
		return o, buf, fmt.Errorf("parse: %w", err)
	}
	if tr != nil {
		sp = tr.begin("exec.plan", root, qid)
		_, err = pq.ExplainGranted()
		tr.end(sp)
		if err != nil {
			return o, buf, fmt.Errorf("explain: %w", err)
		}
	}
	sp = tr.begin("exec.open", root, qid)
	rows, err := pq.Rows(ctx)
	tr.end(sp)
	if err != nil {
		return o, buf, fmt.Errorf("open: %w", err)
	}
	sp = tr.begin("exec.drain", root, qid)
	var busy time.Duration
	var rowCount int
	for {
		var ts time.Time
		if tr != nil {
			ts = time.Now()
		}
		ok := rows.Next()
		if tr != nil {
			busy += time.Since(ts)
		}
		if !ok {
			break
		}
		buf = append(buf, rows.Record()...)
		rowCount++
	}
	tr.end(sp)
	tr.add("exec.next_ns", float64(busy))
	tr.add("exec.rows", float64(rowCount))
	serr := rows.Err()
	o.explain = rows.Explain()
	o.recSize = rows.RecordSize()
	sp = tr.begin("storage.close", root, qid)
	cerr := rows.Close()
	tr.end(sp)
	tr.end(root)
	o.lat = time.Since(t0)
	o.dev = dev.Stats().Sub(before)
	if serr != nil {
		return o, buf, fmt.Errorf("stream: %w", serr)
	}
	if cerr != nil {
		return o, buf, fmt.Errorf("close: %w", cerr)
	}
	return o, buf, nil
}
