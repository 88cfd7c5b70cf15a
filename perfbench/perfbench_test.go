package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"pnstm"
)

func TestKVReadCheckerRejectsCorruption(t *testing.T) {
	const seed, k = 7, 42
	seen := make([]uint32, kvKeys)
	if err := checkKVRead(seed, k, kvValue(seed, k, 3), true, seen, 3); err != nil {
		t.Fatalf("valid read rejected: %v", err)
	}
	if seen[k] != 3 {
		t.Fatalf("seen[%d] = %d after reading version 3", k, seen[k])
	}
	corrupt := kvValue(seed, k, 3)
	corrupt[kvValueLen-1] ^= 1
	for name, tc := range map[string]struct {
		val    []byte
		found  bool
		issued uint32
	}{
		"version went backwards": {kvValue(seed, k, 2), true, 3},
		"version not yet issued": {kvValue(seed, k, 4), true, 3},
		"value corrupted":        {corrupt, true, 3},
		"another key's value":    {kvValue(seed, k+1, 3), true, 3},
		"key missing":            {nil, false, 3},
	} {
		if err := checkKVRead(seed, k, tc.val, tc.found, append([]uint32(nil), seen...), tc.issued); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestXferCheckerRejectsBalanceOffByOne(t *testing.T) {
	p := planXfer(5, 400)
	got := append([]int64(nil), p.expect...)
	if err := checkBalances(p.expect, got); err != nil {
		t.Fatalf("generator's own balances rejected: %v", err)
	}
	got[17]++
	if err := checkBalances(p.expect, got); err == nil {
		t.Fatal("balance off by one accepted")
	}
	got[18]-- // total conserved again, two balances still wrong
	if err := checkBalances(p.expect, got); err == nil {
		t.Fatal("two compensating wrong balances accepted")
	}
}

func TestXferPlanShape(t *testing.T) {
	p := planXfer(9, 800)
	maps := xferMapNames()
	if len(maps) != xferMaps {
		t.Fatalf("%d maps, want %d", len(maps), xferMaps)
	}
	var cross, total int
	for _, ops := range p.ops {
		for _, op := range ops {
			total++
			if op.cross() {
				cross++
			}
			if op.from == op.to {
				t.Fatalf("transfer from account %d to itself", op.from)
			}
		}
	}
	if cross*2 != total {
		t.Fatalf("%d of %d transfers cross shards, want half", cross, total)
	}
}

// treeState runs roots root transactions of goroutine 0 on a Serial
// runtime, which runs every Parallel child in turn, and returns the
// objects' final values.
func treeState(t *testing.T, seed int64, roots int) []int64 {
	rt, err := pnstm.New(pnstm.Config{Workers: 1, Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	objs := make([]*pnstm.TVar[int64], treeObjs)
	for i := range objs {
		objs[i] = pnstm.NewTVar(int64(0))
	}
	for r := 0; r < roots; r++ {
		tr := &treeRoot{seed: seed, r: r, objs: objs, errs: new(atomic.Int64)}
		if err := rt.Run(func(c *pnstm.Ctx) { tr.node(c, treeDepth, 0, spanRef{}) }); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	for _, o := range objs {
		got = append(got, o.Peek())
	}
	return got
}

func TestTreeCheckerRejectsObjectOneShort(t *testing.T) {
	const seed, roots = 11, 20
	got := treeState(t, seed, roots)
	if err := checkTree(seed, 0, roots, got); err != nil {
		t.Fatalf("Serial runtime's state rejected: %v", err)
	}
	for _, i := range []int{0, 37, treeObjs - 1} { // the first leaf's first object, one inside, the last leaf's last
		short := append([]int64(nil), got...)
		short[i]--
		if err := checkTree(seed, 0, roots, short); err == nil {
			t.Fatalf("object %d one short accepted", i)
		}
	}
}

// TestWorkloadsSmall runs every workload at a small size, untraced and
// traced, and checks the printed result's shape against BENCHMARK.json.
func TestWorkloadsSmall(t *testing.T) {
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	small := map[string]int{"kv-read": 800, "xfer-durable": 160, "nested-tree": 40}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rc := runCfg{seed: 3, ops: small[w.name], dir: t.TempDir(), setupReps: 2}
			res, err := measure(&w, rc, traced, t.TempDir()+"/spans.jsonl")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != int64(small[w.name]) {
				t.Fatalf("%s traced=%v: correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			var names []string
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a number in %s", w.name, traced, m.Name, got, m.Unit)
				}
				names = append(names, m.Name)
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				sort.Strings(names)
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d: %v", w.name, traced, len(res.Metrics), len(want), names)
			}
		}
	}
}

func TestReportEndsWithResultLine(t *testing.T) {
	var out bytes.Buffer
	if err := report(&out, "kv-read", 4, &result{Correct: true, Attempted: 8, Metrics: map[string]metric{"setup_s": {0.5, "s"}}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.Contains(lines[0], "seed 4 attempted 8 failed 0") {
		t.Errorf("first line %q does not give the seed and the counts", lines[0])
	}
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result line has %d keys, want 4", len(res))
	}
}

func TestClientLayersWindowMedians(t *testing.T) {
	// 20 windows of one second; window w completes w+1 operations of
	// latency (w+1) µs, so the median window has ~10 operations.
	o := &outcome{elapsed: windows, recoveryWall: []float64{0.2}}
	for w := 0; w < windows; w++ {
		for i := 0; i <= w; i++ {
			o.lat = append(o.lat, int64(w+1)*1000)
			o.done = append(o.done, int64(w)*1e9+int64(i))
		}
	}
	m := clientLayers(o)
	if got := m["client.throughput_ops_s"]; got != 10.5 {
		t.Errorf("throughput %v, want the median window's 10.5", got)
	}
	if got := m["client.latency_p50_us"]; got != 10.5 {
		t.Errorf("p50 %v, want 10.5", got)
	}
}

func TestEndToEndMedians(t *testing.T) {
	o := &outcome{attempted: 4, cpu: 2e-6, setup: []float64{3, 1, 2}, recovery: []float64{0.5, 0.2, 0.4}}
	m := endToEnd(o)
	if got := m["cpu_us_per_op"].Value; got != 0.5 {
		t.Errorf("cpu per op %v, want 0.5", got)
	}
	if got := m["setup_s"].Value; got != 2 {
		t.Errorf("setup %v, want the median set-up 2", got)
	}
	if got := m["recovery_cpu_s"].Value; got != 0.4 {
		t.Errorf("recovery %v, want the median reopen 0.4", got)
	}
}
