package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pnstm"
	"pnstm/server"
)

// nested-tree: the embedded runtime at its default write-only conflict
// model. One root goroutine per CPU, each on its own objects; every root
// transaction forks a depth-3 binary tree of transactions whose 8 leaves
// each run a fixed hash chain, then read-modify-write their 16 own objects.
//
// The leaves share no object. The paper's §7 benchmark has each leaf also
// access one object of its right neighbour, but on that overlap the engine
// now and then loses or doubles a sibling's update, and lets a sibling read
// a doubled one (CHANGES.md, FOUND), so a run's outcome would depend on
// timing.
const (
	treeDepth   = 3
	treeLeaves  = 1 << treeDepth
	leafObjs    = 16
	treeObjs    = treeLeaves * leafObjs
	leafRounds  = 1000 // SplitMix64 steps per leaf: a few microseconds
	treeWorkers = 8
	// treeWarmup roots per goroutine run during set-up, so the timed
	// phase starts on a runtime whose pools and goroutines are warm.
	treeWarmup = 64
	// treeReopens is how many times the recovery figure reopens the
	// persisted objects: one reopen takes about 10 ms, so the median
	// needs more of them than the other workloads' longer reopens.
	treeReopens = 31
)

// leafHash is the hash chain leaf l of root r of goroutine g runs.
func leafHash(seed int64, g, r, l int) uint64 {
	x := uint64(seed) ^ uint64(g)<<48 ^ uint64(r)<<8 ^ uint64(l)
	for i := 0; i < leafRounds; i++ {
		x = splitmix(x)
	}
	return x
}

// leafDelta is what a leaf with hash h adds to the j-th of its leafObjs
// objects.
func leafDelta(h uint64, j int) int64 { return int64(splitmix(h+uint64(j)) & 0xffff) }

// checkTree replays one goroutine's roots with a plain sequential loop and
// compares every object's final value with got.
func checkTree(seed int64, g, roots int, got []int64) error {
	want := make([]int64, treeObjs)
	for r := 0; r < roots; r++ {
		for l := 0; l < treeLeaves; l++ {
			h := leafHash(seed, g, r, l)
			for j := 0; j < leafObjs; j++ {
				want[l*leafObjs+j] += leafDelta(h, j)
			}
		}
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("goroutine %d object %d holds %d, want %d", g, i, got[i], want[i])
		}
	}
	return nil
}

// treeRoot is one root transaction's tree.
type treeRoot struct {
	seed int64
	g, r int
	objs []*pnstm.TVar[int64]
	tr   *tracer // nil: no spans
	errs *atomic.Int64
}

// node runs the subtree of depth d whose leftmost leaf is lo as one
// transaction; p is the enclosing span when traced.
func (t *treeRoot) node(c *pnstm.Ctx, d, lo int, p spanRef) {
	name := spEngineAtomic
	if d == 0 {
		name = spLeafAtomic
	}
	var sp spanRef
	if t.tr != nil {
		sp = t.tr.child(name, p)
	}
	err := c.Atomic(func(c *pnstm.Ctx) error {
		if d == 0 {
			t.leaf(c, lo, sp)
			return nil
		}
		var fork spanRef
		if t.tr != nil {
			fork = t.tr.child(spEngineFork, sp)
		}
		half := 1 << (d - 1)
		c.Parallel(
			func(c *pnstm.Ctx) { t.node(c, d-1, lo, fork) },
			func(c *pnstm.Ctx) { t.node(c, d-1, lo+half, fork) },
		)
		if t.tr != nil {
			t.tr.end(fork)
		}
		return nil
	})
	if t.tr != nil {
		t.tr.end(sp)
	}
	if err != nil {
		t.errs.Add(1)
	}
}

func (t *treeRoot) leaf(c *pnstm.Ctx, l int, p spanRef) {
	var sp spanRef
	if t.tr != nil {
		sp = t.tr.child(spLeafBody, p)
	}
	h := leafHash(t.seed, t.g, t.r, l)
	for j := 0; j < leafObjs; j++ {
		d := leafDelta(h, j)
		pnstm.Update(c, t.objs[l*leafObjs+j], func(v int64) int64 { return v + d })
	}
	if t.tr != nil {
		t.tr.end(sp)
	}
}

func runTree(rc *runCfg) (*outcome, error) {
	o := &outcome{}
	// The reference configuration is the serial-nesting baseline, whose
	// runtime takes one Run at a time.
	goroutines := runtime.NumCPU()
	if rc.reference {
		goroutines = 1
	}
	roots := max(rc.ops/goroutines, 1)
	var (
		rt     *pnstm.Runtime
		objs   [][]*pnstm.TVar[int64]
		errs   atomic.Int64 // transactions whose Atomic returned an error
		failed atomic.Int64 // roots whose Run returned an error
	)
	// runRoots runs roots [from, to) of every goroutine; when o.lat is
	// set it times each root from start.
	var start time.Time
	runRoots := func(from, to int, tr *tracer) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := from; r < to; r++ {
					t := &treeRoot{seed: rc.seed, g: g, r: r, objs: objs[g], errs: &errs}
					var sp spanRef
					if tr.sampled(r) {
						t.tr = tr
						sp = tr.root(spEngineRun)
					}
					t0 := time.Now()
					err := rt.Run(func(c *pnstm.Ctx) { t.node(c, treeDepth, 0, sp) })
					if o.lat != nil {
						now, i := time.Now(), g*(to-from)+r-from
						o.lat[i], o.done[i] = int64(now.Sub(t0)), int64(now.Sub(start))
					}
					if t.tr != nil {
						tr.end(sp)
					}
					if err != nil {
						failed.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
	}
	for rep := 0; rep < rc.setupReps; rep++ {
		if rt != nil {
			rt.Close()
		}
		runtime.GC() // every set-up starts from a collected heap
		sw := startWatch()
		var err error
		if rt, err = pnstm.New(pnstm.Config{Workers: treeWorkers, Serial: rc.reference}); err != nil {
			return nil, err
		}
		objs = make([][]*pnstm.TVar[int64], goroutines)
		for g := range objs {
			for i := 0; i < treeObjs; i++ {
				objs[g] = append(objs[g], pnstm.NewTVar(int64(0)))
			}
		}
		runRoots(0, treeWarmup, nil)
		o.setup = append(o.setup, sw.cpu())
	}
	defer rt.Close()

	o.attempted = int64(roots * goroutines)
	o.lat, o.done = make([]int64, o.attempted), make([]int64, o.attempted)
	runtime.GC() // every timed phase starts without the torn-down set-ups' garbage
	stats0, mem0 := rt.Stats(), readMem()
	cycles0 := publisherCycles(rt)
	sw := startWatch()
	start = sw.t0
	runRoots(treeWarmup, treeWarmup+roots, rc.tr)
	o.elapsed, o.cpu = sw.wall(), sw.cpu()
	o.layers = coreLayers(rt.Stats().Sub(stats0), o.attempted)
	o.layers["epoch.cycles_per_op"] = float64(publisherCycles(rt)-cycles0) / float64(o.attempted)
	for k, v := range memDelta(mem0, readMem(), o.attempted) {
		o.layers[k] = v
	}
	o.failed = failed.Load()
	if n := errs.Load() + o.failed; n > 0 {
		o.violate("%d transactions or roots returned errors", n)
	}

	var final []entry
	var wg sync.WaitGroup
	for g := range objs {
		got := make([]int64, treeObjs)
		for i, v := range objs[g] {
			got[i] = v.Peek()
			final = append(final, entry{fmt.Sprintf("tree%d", g), fmt.Sprintf("o%03d", i), server.EncodeInt64(got[i])})
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := checkTree(rc.seed, g, treeWarmup+roots, got); err != nil {
				o.violate("%v", err)
			}
		}(g)
	}
	wg.Wait()

	records, err := persistAndReopen(filepath.Join(rc.dir, "nested-tree"), final, treeReopens, o)
	if err != nil {
		return nil, err
	}
	o.layers["wal.replay_records_per_s"] = float64(records) / median(o.recoveryWall)
	return o, nil
}

// publisherCycles reads the runtime's publisher cycle counter; a Serial
// runtime has no publisher.
func publisherCycles(rt *pnstm.Runtime) uint64 {
	if pub := rt.Publisher(); pub != nil {
		return pub.Stats().Cycles
	}
	return 0
}
