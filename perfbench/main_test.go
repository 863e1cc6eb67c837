package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// testQueries covers every result kind the workloads check: an ordered
// full sort, an unordered group-by, a join with group-by and order, a
// filtered stream and an ordered top-k.
func testQueries() (*oracle, []query) {
	o := &oracle{tables: map[string][]uint64{
		"t":    permutedKeys(3000, newRNG(9, 1)),
		"fact": factKeys(3000, 9000, newRNG(9, 3)),
	}}
	return o, []query{
		{table: "t", aggAttr: -1, orderBy: true},
		{table: "t", project: []int{2, 5, 0, 3, 4, 5, 6, 7, 8, 9}, aggAttr: 1},
		{table: "t", where: []pred{{5, "<", 900}}, join: "fact", project: []int{1, 13, 0, 2, 4, 6, 8, 10, 12, 14}, aggAttr: 1, orderBy: true},
		{table: "t", where: []pred{{0, ">=", 100}, {0, "<", 700}}, aggAttr: -1},
		{table: "t", where: []pred{{3, "<", 1000}}, aggAttr: -1, orderBy: true, limit: 100},
	}
}

func TestCheckReportsPerturbedResults(t *testing.T) {
	o, qs := testQueries()
	for _, q := range qs {
		e, err := o.eval(q)
		if err != nil {
			t.Fatal(err)
		}
		size := e.width * 8
		if len(e.rows) < 3*size {
			t.Fatalf("%s: only %d rows", q.dsl(), len(e.rows)/size)
		}
		clone := func() []byte { return append([]byte(nil), e.rows...) }
		if err := check(clone(), size, e); err != nil {
			t.Fatalf("%s: the oracle's own answer fails the check: %v", q.dsl(), err)
		}
		perturbed := map[string][]byte{}
		b := clone()
		b[size+8]++ // attribute 1 of row 1
		perturbed["changed attribute"] = b
		perturbed["missing row"] = clone()[size:]
		b = clone()
		copy(b[:size], b[size:2*size]) // row 0 replaced by a duplicate of row 1
		perturbed["duplicated row"] = b
		if e.ordered {
			b = clone()
			tmp := append([]byte(nil), b[:size]...)
			copy(b[:size], b[size:2*size])
			copy(b[size:2*size], tmp)
			perturbed["swapped rows"] = b
		}
		for what, got := range perturbed {
			if err := check(got, size, e); err == nil {
				t.Errorf("%s: %s passed the check", q.dsl(), what)
			}
		}
		if err := check(clone(), size+8, e); err == nil {
			t.Errorf("%s: wrong record size passed the check", q.dsl())
		}
	}
}

// TestOracleSpotValues pins a few answers derived by hand, so the
// oracle cannot drift into agreeing with a wrong engine.
func TestOracleSpotValues(t *testing.T) {
	o := &oracle{tables: map[string][]uint64{"t": {5, 3, 4, 0, 2, 1}}}
	e, err := o.eval(query{table: "t", aggAttr: -1, orderBy: true, limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeRow(e.rows[recBytes:]); got[0] != 1 || got[2] != 0 || got[1] != 1 {
		t.Errorf("second row %v, want key 1, a1 = 1, a2 = 0", got)
	}
	// Group on a2 = key/3: keys 0,1,2 → group 0 and 3,4,5 → group 1,
	// aggregating a1 = key mod 1001.
	e, err = o.eval(query{table: "t", project: []int{2, 1, 0, 3, 4, 5, 6, 7, 8, 9}, aggAttr: 1, orderBy: true})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]uint64{{0, 3, 3, 0, 2, 0, 0, 0, 0, 0}, {1, 3, 12, 3, 5, 0, 0, 0, 0, 0}}
	for i, w := range want {
		got := decodeRow(e.rows[i*recBytes : (i+1)*recBytes])
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("group %d is %v, want %v", i, got, w)
			}
		}
	}
}

// runOnce measures one round in this process.
func runOnce(wl *workload, traced bool) (*result, error) {
	if traced {
		return tracedRun(context.Background(), wl, 7, 0)
	}
	m, err := measure(context.Background(), wl, 7, 0)
	if err != nil {
		return nil, err
	}
	return endToEnd([]*measured{m})
}

// TestWorkloads runs every workload for one measured round, untraced
// and traced, and checks it reports every metric BENCHMARK.json names
// with no failed query.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range bench.Workloads {
		wl := findWorkload(w.Name)
		if wl == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runOnce(wl, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := names(bench.EndToEnd)
			if traced {
				want = names(bench.PerLayer)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%s traced=%v: metrics %v, want %v", w.Name, traced, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s traced=%v: metrics %v, want %v", w.Name, traced, got, want)
				}
			}
		}
	}
}
