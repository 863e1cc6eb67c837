package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strings"
)

// numAttrs and recBytes describe the benchmark schema: ten 8-byte
// little-endian attributes, attribute 0 the key.
const (
	numAttrs = 10
	recBytes = numAttrs * 8
)

// attrOf derives attribute i of the record with key k. The loader writes
// these values and the oracle re-derives them from the key alone, so a
// result attribute that does not follow from its key is caught. Even
// attributes are coarse buckets of the key, odd ones cyclic residues.
func attrOf(k uint64, i int) uint64 {
	switch {
	case i == 0:
		return k
	case i%2 == 0:
		return k / uint64(i+1)
	default:
		return k % uint64(i*1000+1)
	}
}

// encodeRecord writes the record of key k into dst (recBytes long).
func encodeRecord(dst []byte, k uint64) {
	for i := 0; i < numAttrs; i++ {
		binary.LittleEndian.PutUint64(dst[i*8:], attrOf(k, i))
	}
}

// newRNG is the benchmark's seeded generator; stream separates the
// independent draws (table permutations, query parameters) of one seed.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// permutedKeys returns 0..n-1 in a seeded random order (Fisher-Yates).
func permutedKeys(n int, rng *rand.Rand) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// factKeys is the foreign-key shape of the engine's join generator:
// nFact records cycling over a seeded permutation of the nDim dimension
// keys, so every dimension key matches nFact/nDim fact records.
func factKeys(nDim, nFact int, rng *rand.Rand) []uint64 {
	perm := permutedKeys(nDim, rng)
	keys := make([]uint64, nFact)
	for i := range keys {
		keys[i] = perm[i%nDim]
	}
	return keys
}

// pred is one filter predicate on an attribute of the scanned records.
type pred struct {
	attr int
	op   string // "<", ">=" or "=="
	val  uint64
}

func (p pred) eval(row []uint64) bool {
	v := row[p.attr]
	switch p.op {
	case "<":
		return v < p.val
	case ">=":
		return v >= p.val
	case "==":
		return v == p.val
	}
	panic("perfbench: unknown predicate operator " + p.op)
}

// query is one benchmark query in a form both the engine (through its
// plan DSL) and the oracle evaluate: scan a table, filter it, optionally
// join a probe table on the key, project, group by the key attribute
// aggregating one attribute, order by the key and limit.
type query struct {
	shape   string // the workload's name for this kind of query
	table   string
	where   []pred
	join    string // probe-side table joined on the key; "" for none
	project []int  // nil keeps the records as they are
	aggAttr int    // aggregated attribute of the group-by; -1 for none
	groups  int    // group-count hint handed to the planner; 0 for none
	orderBy bool
	limit   int // 0 for none
}

// dsl renders the query in the engine's plan DSL.
func (q query) dsl() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scan(%s)", q.table)
	for _, p := range q.where {
		fmt.Fprintf(&b, " | filter(a%d %s %d)", p.attr, p.op, p.val)
	}
	if q.join != "" {
		fmt.Fprintf(&b, " | join(scan(%s))", q.join)
	}
	if q.project != nil {
		attrs := make([]string, len(q.project))
		for i, a := range q.project {
			attrs[i] = fmt.Sprintf("a%d", a)
		}
		fmt.Fprintf(&b, " | project(%s)", strings.Join(attrs, ","))
	}
	if q.aggAttr >= 0 {
		if q.groups > 0 {
			fmt.Fprintf(&b, " | groupby(a%d, groups=%d)", q.aggAttr, q.groups)
		} else {
			fmt.Fprintf(&b, " | groupby(a%d)", q.aggAttr)
		}
	}
	if q.orderBy {
		b.WriteString(" | orderby")
	}
	if q.limit > 0 {
		fmt.Fprintf(&b, " | limit(%d)", q.limit)
	}
	return b.String()
}
