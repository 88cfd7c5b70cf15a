package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pnstm"
	"pnstm/server"
	"pnstm/stmlib"
)

// kv-read: the in-memory server at pnstmd's defaults, 90% MapGet spread
// uniformly over 4096 keys of 64 B and 10% MapPut, each caller writing only
// the keys it owns. Mostly client, codec, batcher and the shared-read path;
// no WAL.
const (
	kvKeys     = 4096
	kvValueLen = 64
	kvCallers  = 8
	kvPutPct   = 10
	kvMap      = "kv"
)

// kvOp is one generated operation: a get of key, or the put of version
// ver of key by its owner.
type kvOp struct {
	key uint16
	put bool
	ver uint32
}

type kvPlan struct {
	seed int64
	ops  [][]kvOp // one sequence per caller, all of one length
	keys []string // key names by index
}

// planKV generates total operations (rounded down to whole rounds of
// kvCallers) from seed. Caller c owns the keys k with k % kvCallers == c.
func planKV(seed int64, total int) *kvPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &kvPlan{seed: seed, ops: make([][]kvOp, kvCallers), keys: make([]string, kvKeys)}
	for k := range p.keys {
		p.keys[k] = fmt.Sprintf("k%04d", k)
	}
	vers := make([]uint32, kvKeys)
	per := max(total/kvCallers, 1)
	for c := range p.ops {
		ops := make([]kvOp, per)
		for i := range ops {
			if rng.Intn(100) < kvPutPct {
				k := c + kvCallers*rng.Intn(kvKeys/kvCallers)
				vers[k]++
				ops[i] = kvOp{key: uint16(k), put: true, ver: vers[k]}
			} else {
				ops[i] = kvOp{key: uint16(rng.Intn(kvKeys))}
			}
		}
		p.ops[c] = ops
	}
	return p
}

// kvValue is the value version ver of key k carries: the key index, the
// version, and filler derived from the seed, so a read can be checked
// byte for byte.
func kvValue(seed int64, k int, ver uint32) []byte {
	v := make([]byte, kvValueLen)
	binary.BigEndian.PutUint16(v, uint16(k))
	binary.BigEndian.PutUint32(v[2:], ver)
	x := uint64(seed) ^ uint64(k)<<32 ^ uint64(ver)
	var w [8]byte
	for i := 6; i < kvValueLen; i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(w[:], x)
		copy(v[i:], w[:])
	}
	return v
}

// checkKVRead judges one read of key k against what its reader knows: the
// value must be one the generator made for k, its version no older than
// the reader last saw (seen) and no newer than the owner had issued when
// the reply arrived. It advances seen.
func checkKVRead(seed int64, k int, val []byte, found bool, seen []uint32, issued uint32) error {
	if !found {
		return fmt.Errorf("key %d missing", k)
	}
	if len(val) != kvValueLen || int(binary.BigEndian.Uint16(val)) != k {
		return fmt.Errorf("key %d holds a value for another key or of length %d", k, len(val))
	}
	ver := binary.BigEndian.Uint32(val[2:])
	if !bytes.Equal(val, kvValue(seed, k, ver)) {
		return fmt.Errorf("key %d version %d: value corrupted", k, ver)
	}
	if ver < seen[k] {
		return fmt.Errorf("key %d went backwards from version %d to %d", k, seen[k], ver)
	}
	if ver > issued {
		return fmt.Errorf("key %d read version %d before its owner issued it (issued %d)", k, ver, issued)
	}
	seen[k] = ver
	return nil
}

// kvServerConfig is pnstmd's defaults; the reference configuration turns
// SharedReads off.
func kvServerConfig(rc *runCfg) server.Config {
	return server.Config{SharedReads: !rc.reference}
}

func runKV(rc *runCfg) (*outcome, error) {
	o := &outcome{}
	var (
		p *kvPlan
		s *served
	)
	for rep := 0; rep < rc.setupReps; rep++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // every set-up starts from a collected heap
		sw := startWatch()
		p = planKV(rc.seed, rc.ops)
		var err error
		if s, err = startServer(kvServerConfig(rc)); err != nil {
			return nil, err
		}
		if err := kvPreload(s, p); err != nil {
			s.close()
			return nil, err
		}
		o.setup = append(o.setup, sw.cpu())
	}

	per := len(p.ops[0])
	o.attempted = int64(per * kvCallers)
	o.lat, o.done = make([]int64, o.attempted), make([]int64, o.attempted)
	issued := make([]atomic.Uint32, kvKeys)
	acked := make([]uint32, kvKeys) // each owner writes only its own keys
	var failed atomic.Int64
	runtime.GC() // every timed phase starts without the torn-down set-ups' garbage
	before, mem0 := probeServer(s.srv), readMem()

	sw := startWatch()
	start := sw.t0
	var wg sync.WaitGroup
	for c := 0; c < kvCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seen := make([]uint32, kvKeys)
			lat, done := o.lat[c*per:(c+1)*per], o.done[c*per:(c+1)*per]
			for i, op := range p.ops[c] {
				k := int(op.key)
				var sp spanRef
				traced := rc.tr.sampled(i)
				var (
					val   []byte
					found bool
					err   error
				)
				t0 := time.Now()
				if op.put {
					issued[k].Store(op.ver)
					if traced {
						sp = rc.tr.root(spClientPut)
					}
					err = s.cl.MapPut(kvMap, p.keys[k], kvValue(p.seed, k, op.ver))
				} else {
					if traced {
						sp = rc.tr.root(spClientGet)
					}
					val, found, err = s.cl.MapGet(kvMap, p.keys[k])
				}
				if traced {
					rc.tr.end(sp)
				}
				now := time.Now()
				lat[i], done[i] = int64(now.Sub(t0)), int64(now.Sub(start))
				switch {
				case err != nil:
					failed.Add(1)
				case op.put:
					seen[k], acked[k] = op.ver, op.ver
				default:
					if err := checkKVRead(p.seed, k, val, found, seen, issued[k].Load()); err != nil {
						o.violate("caller %d op %d: %v", c, i, err)
					}
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

	// Each key's final value is its owner's last acknowledged write.
	final := make([]entry, kvKeys)
	for k := range final {
		val, found, err := s.cl.MapGet(kvMap, p.keys[k])
		if err != nil {
			s.close()
			return nil, fmt.Errorf("final read: %w", err)
		}
		want := kvValue(p.seed, k, acked[k])
		if !found || !bytes.Equal(val, want) {
			o.violate("key %d final value %x, want its owner's last acknowledged write (version %d)", k, val, acked[k])
		}
		final[k] = entry{kvMap, p.keys[k], want}
	}
	if rc.tr != nil {
		if err := codecPass(rc.tr, kvRequests(p), kvResponses(p)); err != nil {
			s.close()
			return nil, err
		}
	}
	s.close()
	if rc.tr != nil {
		if err := stmlibReplay(rc.tr, p, kvServerConfig(rc).SharedReads); err != nil {
			return nil, err
		}
	}

	records, err := persistAndReopen(filepath.Join(rc.dir, "kv-read"), final, 5, o)
	if err != nil {
		return nil, err
	}
	o.layers["wal.replay_records_per_s"] = float64(records) / median(o.recoveryWall)
	return o, nil
}

// kvPreload writes version 0 of every key, each caller its own keys.
func kvPreload(s *served, p *kvPlan) error {
	errs := make(chan error, kvCallers)
	for c := 0; c < kvCallers; c++ {
		go func(c int) {
			for k := c; k < kvKeys; k += kvCallers {
				if err := s.cl.MapPut(kvMap, p.keys[k], kvValue(p.seed, k, 0)); err != nil {
					errs <- fmt.Errorf("preload: %w", err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < kvCallers; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// kvRequests and kvResponses rebuild the run's request mix and the replies
// it gets, for the codec pass.
func kvRequests(p *kvPlan) []server.Request {
	var reqs []server.Request
	for c := range p.ops {
		for i, op := range p.ops[c] {
			r := server.Request{ID: uint64(i + 1), Op: server.OpMapGet, Name: kvMap, Key: p.keys[op.key]}
			if op.put {
				r.Op, r.Value = server.OpMapPut, kvValue(p.seed, int(op.key), op.ver)
			}
			reqs = append(reqs, r)
		}
	}
	return reqs
}

func kvResponses(p *kvPlan) []server.Response {
	var resps []server.Response
	for c := range p.ops {
		for i, op := range p.ops[c] {
			r := server.Response{ID: uint64(i + 1), Status: server.StatusOK}
			if !op.put {
				r.Found, r.Value = true, kvValue(p.seed, int(op.key), 0)
			}
			resps = append(resps, r)
		}
	}
	return resps
}

// stmlibReplay replays the first share of each caller's operations against
// an embedded stmlib map on a runtime configured like the server's, one
// root transaction per operation, and records a span per operation.
func stmlibReplay(t *tracer, p *kvPlan, sharedReads bool) error {
	rt, err := pnstm.New(pnstm.Config{Workers: 8, SharedReads: sharedReads})
	if err != nil {
		return err
	}
	defer rt.Close()
	m := stmlib.NewRegistry(stmlib.RegistryConfig{}).Map(kvMap)
	if err := rt.Run(func(c *pnstm.Ctx) {
		for k := range p.keys {
			m.Put(c, p.keys[k], kvValue(p.seed, k, 0))
		}
	}); err != nil {
		return err
	}
	errs := make(chan error, kvCallers)
	for c := 0; c < kvCallers; c++ {
		go func(ops []kvOp) {
			for _, op := range ops {
				key := p.keys[op.key]
				var err error
				if op.put {
					v := kvValue(p.seed, int(op.key), op.ver)
					sp := t.root(spStmlibPut)
					err = rt.Run(func(c *pnstm.Ctx) { m.Put(c, key, v) })
					t.end(sp)
				} else {
					sp := t.root(spStmlibGet)
					err = rt.Run(func(c *pnstm.Ctx) { m.Get(c, key) })
					t.end(sp)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(p.ops[c][:len(p.ops[c])/traceSample])
	}
	var first error
	for c := 0; c < kvCallers; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// readMem snapshots the Go runtime's memory statistics.
func readMem() *runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

// splitmix is the SplitMix64 step, the benchmark's hash for values and
// leaf work.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
