package main

import "math/rand/v2"

// workload is one seeded input set and query round. A run replays the
// round, whole, until its time is up; every round issues the same
// queries, so per-query counts are identical from round to round.
type workload struct {
	name   string
	grant  int64 // per-query working-memory grant of the session/tenant
	remote bool  // serve the queries through wlserved and the client
	// tables generates the keys of every table, in load order.
	tables func(seed uint64) map[string][]uint64
	round  func(rng *rand.Rand) []query
	// Shapes whose chosen operators the traced run replays directly on
	// the kernels ("" skips that probe).
	sortShape, joinShape, aggShape string
}

const (
	deviceBytes = 64 << 20 // every workload's device capacity
	etlRows     = 50_000
	dimRows     = 20_000
	factRows    = 100_000
	smallRows   = 20_000
	largeRows   = 100_000
	// etlGroups is the group-count hint of the etl-sort GROUP BY. It is
	// far below the ~etlRows/3 real groups, so the planner picks the
	// in-memory hash aggregate and the table overflows its share and
	// spills to the sort-merge fallback.
	etlGroups = 500
)

var workloads = []*workload{
	{
		// The paper's write-limited sort under memory pressure: the
		// table is 18× the grant, so every ORDER BY writes runs and
		// merges them, and the GROUP BY's hash table spills.
		name:  "etl-sort",
		grant: etlRows * recBytes / 18,
		tables: func(seed uint64) map[string][]uint64 {
			return map[string][]uint64{"t": permutedKeys(etlRows, newRNG(seed, 1))}
		},
		round: func(rng *rand.Rand) []query {
			var qs []query
			for i := 0; i < 4; i++ {
				qs = append(qs, query{shape: "orderby", table: "t", aggAttr: -1, orderBy: true})
				// Group on a2 = key/3 (etlRows/3 groups), aggregating a
				// seeded odd attribute.
				agg := 1 + 2*rng.IntN(5)
				qs = append(qs, query{shape: "groupby", table: "t",
					project: []int{2, agg, 0, 3, 4, 5, 6, 7, 8, 9}, aggAttr: 1, groups: etlGroups})
			}
			return qs
		},
		sortShape: "orderby",
		aggShape:  "groupby",
	},
	{
		// dim ⋈ fact with a seeded selective filter on dim: the filtered
		// dimension is two to four times the join's share, so the join
		// makes several passes (the planner prefers write-free nested loops
		// to partitioning at λ = 15); the group-by has 1001 groups and
		// its hash table fits in DRAM, and the final sort is small.
		name:  "star-join",
		grant: 512 << 10,
		tables: func(seed uint64) map[string][]uint64 {
			return map[string][]uint64{
				"dim":  permutedKeys(dimRows, newRNG(seed, 1)),
				"fact": factKeys(dimRows, factRows, newRNG(seed, 3)),
			}
		},
		round: func(rng *rand.Rand) []query {
			var qs []query
			for i := 0; i < 8; i++ {
				// a5 = key mod 5001: keeps 16–24% of dim. The values are
				// stratified so every seed's round spans the same range.
				v := uint64(800 + 50*i + rng.IntN(50))
				qs = append(qs, query{shape: "star", table: "dim", where: []pred{{5, "<", v}}, join: "fact",
					// group on dim.a1 (key mod 1001), aggregate fact.a3
					project: []int{1, 13, 0, 2, 4, 6, 8, 10, 12, 14}, aggAttr: 1, orderBy: true})
			}
			return qs
		},
		joinShape: "star",
		aggShape:  "star",
	},
	{
		// One tenant, one closed-loop client: per-query parse, plan,
		// admission, encode and decode costs dominate lookups and
		// streams, while topk's sort input exceeds the grant and spills.
		name:   "serve-mix",
		grant:  256 << 10,
		remote: true,
		tables: func(seed uint64) map[string][]uint64 {
			return map[string][]uint64{
				"small": permutedKeys(smallRows, newRNG(seed, 1)),
				"large": permutedKeys(largeRows, newRNG(seed, 3)),
			}
		},
		round: func(rng *rand.Rand) []query {
			var qs []query
			for i := 0; i < 8; i++ {
				k := uint64(rng.IntN(smallRows))
				qs = append(qs, query{shape: "lookup", table: "small", where: []pred{{0, "==", k}}, aggAttr: -1, limit: 1})
				lo := uint64(rng.IntN(largeRows - 4000))
				qs = append(qs, query{shape: "stream", table: "large", where: []pred{{0, ">=", lo}, {0, "<", lo + 4000}}, aggAttr: -1})
				// a3 = key mod 3001: keeps 30–37% of large, ~10× the grant
				// (stratified like star-join's filter).
				v := uint64(900 + 25*i + rng.IntN(25))
				qs = append(qs, query{shape: "topk", table: "large", where: []pred{{3, "<", v}}, aggAttr: -1, orderBy: true, limit: 100})
			}
			rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
			return qs
		},
		sortShape: "topk",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
