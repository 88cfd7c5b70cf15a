package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pnstm/client"
	"pnstm/server"
	"pnstm/stmlib"
)

// xfer-durable: two shards with a data directory, eight account maps of
// sixteen accounts, four maps per shard. Every operation is a guarded
// transfer envelope; half of them cross shards. Every transfer pays WAL
// append and group commit, and the crossing half also pays ordered
// cross-shard commit.
const (
	xferShards   = 2
	xferMaps     = 8
	xferAccts    = 16 // per map
	xferCallers  = 8
	xferInitial  = int64(1) << 40 // no run can drain an account, so no guard rejects
	xferMaxMoved = 100
	xferReopens  = 3 // each replays the whole run's log, about 2 s

	acctsPerShard = xferAccts * xferMaps / xferShards
)

// xferOp moves amt from account from to account to; accounts are numbered
// map*xferAccts+key, and maps 0..3 live on shard 0, maps 4..7 on shard 1.
type xferOp struct {
	from, to uint8
	amt      int64
}

func (op xferOp) cross() bool {
	return int(op.from)/acctsPerShard != int(op.to)/acctsPerShard
}

type xferPlan struct {
	ops    [][]xferOp // one sequence per caller, all of one length
	maps   []string   // map names by index
	keys   []string   // account key names by index within a map
	expect []int64    // each account's balance once every transfer applied
}

// xferMapNames picks the first four names of the series "acct0", "acct1",
// ... that stmlib.ShardIndex places on each of the two shards, shard 0's
// first.
func xferMapNames() []string {
	var on [xferShards][]string
	for i := 0; len(on[0]) < xferMaps/xferShards || len(on[1]) < xferMaps/xferShards; i++ {
		name := fmt.Sprintf("acct%d", i)
		sh := stmlib.ShardIndex(name, xferShards)
		if len(on[sh]) < xferMaps/xferShards {
			on[sh] = append(on[sh], name)
		}
	}
	return append(on[0], on[1]...)
}

// planXfer generates total transfers (rounded down to whole rounds of
// xferCallers) from seed, every odd-numbered one of each caller crossing
// shards, and records the balances they leave.
func planXfer(seed int64, total int) *xferPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &xferPlan{ops: make([][]xferOp, xferCallers), maps: xferMapNames(), expect: make([]int64, xferMaps*xferAccts)}
	for k := 0; k < xferAccts; k++ {
		p.keys = append(p.keys, fmt.Sprintf("a%02d", k))
	}
	for a := range p.expect {
		p.expect[a] = xferInitial
	}
	perShard := xferMaps / xferShards
	per := max(total/xferCallers, 1)
	for c := range p.ops {
		ops := make([]xferOp, per)
		for i := range ops {
			fromMap := rng.Intn(xferMaps)
			from := fromMap*xferAccts + rng.Intn(xferAccts)
			toShard := fromMap / perShard
			if i%2 == 1 {
				toShard = 1 - toShard
			}
			to := from
			for to == from {
				to = (toShard*perShard+rng.Intn(perShard))*xferAccts + rng.Intn(xferAccts)
			}
			amt := 1 + rng.Int63n(xferMaxMoved)
			ops[i] = xferOp{from: uint8(from), to: uint8(to), amt: amt}
			p.expect[from] -= amt
			p.expect[to] += amt
		}
		p.ops[c] = ops
	}
	return p
}

func (p *xferPlan) account(a int) (name, key string) {
	return p.maps[a/xferAccts], p.keys[a%xferAccts]
}

// checkBalances compares every balance with the generator's record and
// checks that the total is conserved.
func checkBalances(expect, got []int64) error {
	var total int64
	for a := range expect {
		if got[a] != expect[a] {
			return fmt.Errorf("account %d holds %d, want %d", a, got[a], expect[a])
		}
		total += got[a]
	}
	if want := xferInitial * int64(len(expect)); total != want {
		return fmt.Errorf("balances sum to %d, want %d", total, want)
	}
	return nil
}

// readBalances reads every account through the client.
func readBalances(cl *client.Client, p *xferPlan) ([]int64, error) {
	got := make([]int64, len(p.expect))
	for a := range got {
		name, key := p.account(a)
		v, ok, err := cl.MapGetInt(name, key)
		if err != nil {
			return nil, fmt.Errorf("reading %s/%s: %w", name, key, err)
		}
		if !ok {
			v = -1 // an account that vanished can never match
		}
		got[a] = v
	}
	return got, nil
}

// xferServerConfig is pnstmd's defaults with two shards and a data
// directory, without snapshot or reaper timers so every reopen replays the
// whole log, and without fsync: on a shared virtual disk fsync latency
// moves throughput by more than any bound can allow (see README). The
// reference configuration runs one shard.
func xferServerConfig(dir string, rc *runCfg) server.Config {
	cfg := server.Config{Shards: xferShards, SharedReads: true, DataDir: dir}
	if rc.reference {
		cfg.Shards = 1
	}
	return cfg
}

func runXfer(rc *runCfg) (*outcome, error) {
	o := &outcome{}
	dataDir := filepath.Join(rc.dir, "xfer-durable")
	cfg := xferServerConfig(dataDir, rc)
	var (
		p *xferPlan
		s *served
	)
	for rep := 0; rep < rc.setupReps; rep++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // every set-up starts from a collected heap
		sw := startWatch()
		p = planXfer(rc.seed, rc.ops)
		if err := freshDir(dataDir); err != nil {
			return nil, err
		}
		var err error
		if s, err = startServer(cfg); err != nil {
			return nil, err
		}
		for m, name := range p.maps {
			tx := s.cl.Txn()
			for _, key := range p.keys {
				tx.MapPutInt(name, key, xferInitial)
			}
			if _, err := tx.Commit(); err != nil {
				s.close()
				return nil, fmt.Errorf("creating accounts of map %d: %w", m, err)
			}
		}
		o.setup = append(o.setup, sw.cpu())
	}

	per := len(p.ops[0])
	o.attempted = int64(per * xferCallers)
	o.lat, o.done = make([]int64, o.attempted), make([]int64, o.attempted)
	var failed atomic.Int64
	bytes0, err := dirBytes(dataDir)
	if err != nil {
		s.close()
		return nil, err
	}
	runtime.GC() // every timed phase starts without the torn-down set-ups' garbage
	before, mem0 := probeServer(s.srv), readMem()

	sw := startWatch()
	start := sw.t0
	var wg sync.WaitGroup
	for c := 0; c < xferCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat, done := o.lat[c*per:(c+1)*per], o.done[c*per:(c+1)*per]
			for i, op := range p.ops[c] {
				fromName, fromKey := p.account(int(op.from))
				toName, toKey := p.account(int(op.to))
				var sp spanRef
				traced := rc.tr.sampled(i)
				t0 := time.Now()
				if traced {
					sp = rc.tr.root(spClientCommit)
				}
				_, err := s.cl.Txn().
					AssertGE(fromName, fromKey, op.amt).
					MapAddInt(fromName, fromKey, -op.amt).
					MapAddInt(toName, toKey, op.amt).
					Commit()
				if traced {
					rc.tr.end(sp)
				}
				now := time.Now()
				lat[i], done[i] = int64(now.Sub(t0)), int64(now.Sub(start))
				if err != nil {
					failed.Add(1)
					o.violate("caller %d transfer %d: %v", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()
	o.elapsed, o.cpu = sw.wall(), sw.cpu()
	o.failed = failed.Load()
	o.layers = serverLayers(before, probeServer(s.srv), o.attempted)
	for k, v := range memDelta(mem0, readMem(), o.attempted) {
		o.layers[k] = v
	}
	bytes1, err := dirBytes(dataDir)
	if err != nil {
		s.close()
		return nil, err
	}
	o.layers["wal.bytes_per_op"] = float64(bytes1-bytes0) / float64(o.attempted)
	var cross, local []int64
	for c := range p.ops {
		for i, op := range p.ops[c] {
			if op.cross() {
				cross = append(cross, o.lat[c*per+i])
			} else {
				local = append(local, o.lat[c*per+i])
			}
		}
	}
	o.layers["xshard.cross_p50_us"] = quantile(sortedCopy(cross), 0.5) / 1e3
	o.layers["xshard.local_p50_us"] = quantile(sortedCopy(local), 0.5) / 1e3

	got, err := readBalances(s.cl, p)
	if err != nil {
		s.close()
		return nil, err
	}
	if err := checkBalances(p.expect, got); err != nil {
		o.violate("live: %v", err)
	}
	if rc.tr != nil {
		if err := codecPass(rc.tr, xferRequests(p), xferResponses(p)); err != nil {
			s.close()
			return nil, err
		}
	}
	s.kill()

	records, err := reopen(cfg, xferReopens, o, func(cl *client.Client) error {
		got, err := readBalances(cl, p)
		if err != nil {
			return err
		}
		if err := checkBalances(p.expect, got); err != nil {
			o.violate("after kill and reopen: %v", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.layers["wal.replay_records_per_s"] = float64(records) / median(o.recoveryWall)
	return o, nil
}

// xferRequests and xferResponses rebuild the run's envelopes and the
// replies they get, for the codec pass.
func xferRequests(p *xferPlan) []server.Request {
	var reqs []server.Request
	for c := range p.ops {
		for i, op := range p.ops[c] {
			fromName, fromKey := p.account(int(op.from))
			toName, toKey := p.account(int(op.to))
			reqs = append(reqs, server.Request{ID: uint64(i + 1), Op: server.OpTx, Tx: &server.Tx{Ops: []server.TxOp{
				{Op: server.OpAssertGE, Name: fromName, Key: fromKey, Delta: op.amt},
				{Op: server.OpMapAdd, Name: fromName, Key: fromKey, Delta: -op.amt},
				{Op: server.OpMapAdd, Name: toName, Key: toKey, Delta: op.amt},
			}}})
		}
	}
	return reqs
}

func xferResponses(p *xferPlan) []server.Response {
	var resps []server.Response
	for c := range p.ops {
		for i := range p.ops[c] {
			resps = append(resps, server.Response{ID: uint64(i + 1), Status: server.StatusOK, TxResults: []server.TxResult{
				{Status: server.StatusOK},
				{Status: server.StatusOK, Found: true, Num: xferInitial},
				{Status: server.StatusOK, Found: true, Num: xferInitial},
			}})
		}
	}
	return resps
}
