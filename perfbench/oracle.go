package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// oracle is a naive in-memory evaluator over the benchmark's own
// generated inputs. It shares no code with the engine: rows are
// re-derived from the generated keys, filters are loops, the join is a
// Go map, the aggregate a map of running count/sum/min/max, and the
// order a sort.Slice.
type oracle struct {
	tables map[string][]uint64 // keys of each table, in load order
}

// expected is a query's correct answer.
type expected struct {
	width   int  // attributes per row
	ordered bool // the plan orders its output; otherwise a multiset
	rows    []byte
}

// eval computes q's answer.
func (o *oracle) eval(q query) (*expected, error) {
	keys, ok := o.tables[q.table]
	if !ok {
		return nil, fmt.Errorf("oracle: unknown table %q", q.table)
	}
	var rows [][]uint64
	for _, k := range keys {
		r := deriveRow(k)
		keep := true
		for _, p := range q.where {
			keep = keep && p.eval(r)
		}
		if keep {
			rows = append(rows, r)
		}
	}
	if q.join != "" {
		probe, ok := o.tables[q.join]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown table %q", q.join)
		}
		build := make(map[uint64][][]uint64, len(rows))
		for _, r := range rows {
			build[r[0]] = append(build[r[0]], r)
		}
		var joined [][]uint64
		for _, k := range probe {
			for _, l := range build[k] {
				joined = append(joined, append(append([]uint64{}, l...), deriveRow(k)...))
			}
		}
		rows = joined
	}
	if q.project != nil {
		for i, r := range rows {
			p := make([]uint64, len(q.project))
			for j, a := range q.project {
				p[j] = r[a]
			}
			rows[i] = p
		}
	}
	if q.aggAttr >= 0 {
		rows = groupRows(rows, q.aggAttr)
	}
	if q.orderBy {
		sort.Slice(rows, func(i, j int) bool { return lessRow(rows[i], rows[j]) })
	}
	if q.limit > 0 && len(rows) > q.limit {
		rows = rows[:q.limit]
	}
	width := numAttrs
	switch {
	case q.aggAttr >= 0:
	case q.project != nil:
		width = len(q.project)
	case q.join != "":
		width = 2 * numAttrs
	}
	e := &expected{width: width, ordered: q.orderBy, rows: make([]byte, 0, len(rows)*width*8)}
	buf := make([]byte, width*8)
	for _, r := range rows {
		for i, v := range r {
			binary.LittleEndian.PutUint64(buf[i*8:], v)
		}
		e.rows = append(e.rows, buf...)
	}
	if !e.ordered {
		sortRecords(e.rows, width*8)
	}
	return e, nil
}

func deriveRow(k uint64) []uint64 {
	r := make([]uint64, numAttrs)
	for i := range r {
		r[i] = attrOf(k, i)
	}
	return r
}

// groupRows groups rows by attribute 0 and aggregates attribute attr
// into the engine's result layout: key, count, sum, min, max, then zeros.
func groupRows(rows [][]uint64, attr int) [][]uint64 {
	groups := make(map[uint64][]uint64)
	var order []uint64
	for _, r := range rows {
		v := r[attr]
		g, ok := groups[r[0]]
		if !ok {
			g = make([]uint64, numAttrs)
			g[0], g[3], g[4] = r[0], v, v
			groups[r[0]] = g
			order = append(order, r[0])
		}
		g[1]++
		g[2] += v
		g[3] = min(g[3], v)
		g[4] = max(g[4], v)
	}
	out := make([][]uint64, len(order))
	for i, k := range order {
		out[i] = groups[k]
	}
	return out
}

func lessRow(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// check compares an engine result — recSize-byte records concatenated
// in stream order — with the oracle's answer: in order where the plan
// orders, as a multiset elsewhere. It sorts got in place in the
// multiset case.
func check(got []byte, recSize int, e *expected) error {
	if recSize != e.width*8 {
		return fmt.Errorf("record size %d B, want %d B", recSize, e.width*8)
	}
	if len(got) != len(e.rows) {
		return fmt.Errorf("%d rows, want %d", len(got)/recSize, len(e.rows)/recSize)
	}
	if !e.ordered {
		sortRecords(got, recSize)
	}
	if bytes.Equal(got, e.rows) {
		return nil
	}
	for i := 0; i < len(got); i += recSize {
		if !bytes.Equal(got[i:i+recSize], e.rows[i:i+recSize]) {
			return fmt.Errorf("row %d is %v, want %v", i/recSize, decodeRow(got[i:i+recSize]), decodeRow(e.rows[i:i+recSize]))
		}
	}
	return nil
}

func decodeRow(rec []byte) []uint64 {
	r := make([]uint64, len(rec)/8)
	for i := range r {
		r[i] = binary.LittleEndian.Uint64(rec[i*8:])
	}
	return r
}

// sortRecords sorts fixed-size records bytewise in place: a canonical
// order for comparing multisets.
func sortRecords(buf []byte, size int) {
	sort.Sort(&records{buf: buf, size: size, tmp: make([]byte, size)})
}

type records struct {
	buf  []byte
	size int
	tmp  []byte
}

func (r *records) Len() int { return len(r.buf) / r.size }
func (r *records) at(i int) []byte {
	return r.buf[i*r.size : (i+1)*r.size]
}
func (r *records) Less(i, j int) bool { return bytes.Compare(r.at(i), r.at(j)) < 0 }
func (r *records) Swap(i, j int) {
	copy(r.tmp, r.at(i))
	copy(r.at(i), r.at(j))
	copy(r.at(j), r.tmp)
}
