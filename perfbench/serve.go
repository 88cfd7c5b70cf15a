package main

import (
	"fmt"
	"runtime"

	"pnstm"
	"pnstm/client"
	"pnstm/server"
)

// served is a server listening on a loopback port plus the benchmark's
// pooled client. Callers share the pool's runtime.NumCPU() connections.
type served struct {
	srv  *server.Server
	cl   *client.Client
	done chan error
}

func startServer(cfg server.Config) (*served, error) {
	cfg.Addr = "127.0.0.1:0"
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	return serve(srv)
}

// serve starts srv listening and connects the benchmark's client to it; on
// failure srv is closed.
func serve(srv *server.Server) (*served, error) {
	if err := srv.Listen(); err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &served{srv: srv, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve() }()
	var err error
	s.cl, err = client.Connect(client.Options{
		Addrs:    []string{srv.Addr().String()},
		PoolSize: runtime.NumCPU(),
	})
	if err != nil {
		srv.Close()
		<-s.done
		return nil, fmt.Errorf("connect: %w", err)
	}
	return s, nil
}

// close shuts the server down gracefully; kill crashes it (Server.Kill).
func (s *served) close() { s.stop(s.srv.Close) }
func (s *served) kill()  { s.stop(s.srv.Kill) }

func (s *served) stop(how func()) {
	s.cl.Close()
	how()
	<-s.done
}

// serverProbe reads the server's public counters around a timed phase.
type serverProbe struct {
	st     server.ServerStats
	cycles uint64
}

func probeServer(srv *server.Server) serverProbe {
	return serverProbe{st: srv.Stats(), cycles: publisherCycles(srv.Runtime())}
}

// serverLayers turns two probes around a timed phase of ops operations
// into the per-layer metrics of the engine, the batcher and the WAL. The
// publisher figure is shard 0's: Server exposes only that runtime.
func serverLayers(before, after serverProbe, ops int64) map[string]float64 {
	m := coreLayers(after.st.Runtime.Sub(before.st.Runtime), ops)
	m["epoch.cycles_per_op"] = float64(after.cycles-before.cycles) / float64(ops)
	if b := after.st.Batches - before.st.Batches; b > 0 {
		m["server.batch_mean"] = float64(after.st.Requests-before.st.Requests) / float64(b)
	}
	m["server.batch_max"] = float64(after.st.LargestBatch)
	// The latency histograms are cumulative and split by op class; the
	// class that served most requests is the workload's.
	var top server.LatencySummary
	for _, l := range after.st.Latency {
		if l.Count > top.Count {
			top = l
		}
	}
	m["server.latency_p50_us"] = top.P50us
	m["server.latency_p99_us"] = top.P99us
	if after.st.WAL != nil && before.st.WAL != nil {
		m["wal.appends_per_op"] = float64(after.st.WAL.Appends-before.st.WAL.Appends) / float64(ops)
	}
	return m
}

// coreLayers renders an engine Stats delta per operation.
func coreLayers(d pnstm.Stats, ops int64) map[string]float64 {
	n := float64(ops)
	m := map[string]float64{
		"core.tx_per_op":             float64(d.Begun) / n,
		"core.aborts_per_op":         float64(d.Aborted) / n,
		"core.conflicts_per_op":      float64(d.Conflicts) / n,
		"core.spin_saves_per_op":     float64(d.SpinSaves) / n,
		"core.escalations_per_op":    float64(d.Escalations) / n,
		"core.dispatches_per_op":     float64(d.Dispatches) / n,
		"core.slot_yields_per_op":    float64(d.SlotYields) / n,
		"core.help_publishes_per_op": float64(d.HelpPublishes) / n,
		"core.crises":                float64(d.Crises),
	}
	if d.Begun > 0 {
		m["core.commit_ratio"] = float64(d.Committed) / float64(d.Begun)
	}
	return m
}

// entry is one map value a recovery check expects back.
type entry struct {
	name, key string
	value     []byte
}

// persistAndReopen gives an in-memory workload a recovery figure: it
// writes the workload's final state into a fresh one-shard durable server,
// one MapPut per entry from one caller (so one WAL record each), kills the
// server and times reopening the directory. The reopened state must hold
// every entry; a missing or different one is a violation in o.
func persistAndReopen(dir string, entries []entry, reps int, o *outcome) (records int, err error) {
	if err := freshDir(dir); err != nil {
		return 0, err
	}
	cfg := server.Config{SharedReads: true, DataDir: dir, DisableTracing: true}
	s, err := startServer(cfg)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if err := s.cl.MapPut(e.name, e.key, e.value); err != nil {
			s.kill()
			return 0, fmt.Errorf("persist %s/%s: %w", e.name, e.key, err)
		}
	}
	s.kill()
	return reopen(cfg, reps, o, func(cl *client.Client) error {
		for _, e := range entries {
			v, ok, err := cl.MapGet(e.name, e.key)
			if err != nil {
				return err
			}
			if !ok || string(v) != string(e.value) {
				o.violate("after reopen %s/%s = %x (found %v), want %x", e.name, e.key, v, ok, e.value)
			}
		}
		return nil
	})
}

// reopen times server.New on a killed server's data directory reps times,
// in CPU time (o.recovery) and wall time (o.recoveryWall), killing each
// reopened server again. The last one first serves the store to check,
// which reports wrong state as violations and returns only errors that
// stop it from checking. records is what the last reopen replayed.
func reopen(cfg server.Config, reps int, o *outcome, check func(*client.Client) error) (records int, err error) {
	cfg.Addr = "127.0.0.1:0"
	for i := 0; i < reps; i++ {
		runtime.GC() // every reopen starts from a collected heap
		sw := startWatch()
		srv, err := server.New(cfg)
		if err != nil {
			return 0, fmt.Errorf("reopen: %w", err)
		}
		o.recovery = append(o.recovery, sw.cpu())
		o.recoveryWall = append(o.recoveryWall, sw.wall())
		records = srv.WALStats().RecoveredRecords
		if i < reps-1 {
			srv.Kill()
			continue
		}
		s, err := serve(srv)
		if err != nil {
			return 0, err
		}
		err = check(s.cl)
		s.kill()
		if err != nil {
			return 0, err
		}
	}
	return records, nil
}
