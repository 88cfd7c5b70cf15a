package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

// Span names: each marks a call the benchmark makes into one layer's
// public functions.
const (
	spClientGet    uint8 = iota // client.Client.MapGet
	spClientPut                 // client.Client.MapPut
	spClientCommit              // client.Txn.Commit
	spEngineRun                 // pnstm.Runtime.Run
	spEngineAtomic              // pnstm.Ctx.Atomic of an inner tree node
	spEngineFork                // pnstm.Ctx.Parallel
	spLeafAtomic                // pnstm.Ctx.Atomic of a leaf
	spLeafBody                  // one attempt of a leaf's body
	spStmlibGet                 // stmlib.TMap.Get inside Run
	spStmlibPut                 // stmlib.TMap.Put inside Run
	spCodec                     // one pass of a server codec function over the request mix
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.MapGet", "client.MapPut", "client.Txn.Commit",
	"engine.Run", "engine.Atomic", "engine.Parallel", "engine.Atomic.leaf", "engine.body.leaf",
	"stmlib.TMap.Get", "stmlib.TMap.Put", "codec.pass",
}

// traceSample is the share of operations a traced run records spans for:
// one in traceSample, chosen by operation index. Recording every span of
// nested-tree would hold tens of megabytes.
const traceSample = 8

// span is one recorded interval; times are nanoseconds since the tracer
// started. A root span's parent is -1 and its trace is its own id; every
// span of one operation shares the root's trace.
type span struct {
	parent, trace int64
	name          uint8
	start, end    int64
}

// spanRef is an open span.
type spanRef struct {
	id, trace int64
	parent    int64
	name      uint8
	start     int64
}

// tracer keeps spans in memory, in a slice sized up front and indexed by
// span id, so recording takes one atomic add and no lock. Spans beyond the
// capacity are counted and dropped.
type tracer struct {
	t0      time.Time
	next    atomic.Int64
	spans   []span
	dropped atomic.Int64
	extra   map[string]float64 // per-layer figures measured outside spans
}

func newTracer(ops int) *tracer {
	return &tracer{
		t0:    time.Now(),
		spans: make([]span, ops/traceSample*64+ops/4+1024),
		extra: map[string]float64{},
	}
}

// sampled reports whether operation i gets spans.
func (t *tracer) sampled(i int) bool { return t != nil && i%traceSample == 0 }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// root opens a span that starts a trace.
func (t *tracer) root(name uint8) spanRef {
	id := t.next.Add(1) - 1
	return spanRef{id: id, trace: id, parent: -1, name: name, start: t.now()}
}

// child opens a span caused by p.
func (t *tracer) child(name uint8, p spanRef) spanRef {
	id := t.next.Add(1) - 1
	return spanRef{id: id, trace: p.trace, parent: p.id, name: name, start: t.now()}
}

// end closes s and returns its duration in nanoseconds.
func (t *tracer) end(s spanRef) int64 {
	end := t.now()
	if s.id >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return end - s.start
	}
	t.spans[s.id] = span{parent: s.parent, trace: s.trace, name: s.name, start: s.start, end: end}
	return end - s.start
}

// recorded is the number of spans kept.
func (t *tracer) recorded() int64 {
	return min(t.next.Load(), int64(len(t.spans)))
}

// layers derives the span-based per-layer metrics: medians of the engine
// and stmlib spans, and the fork-join overhead of each Parallel span, its
// duration minus that of its slowest child.
func (t *tracer) layers() map[string]float64 {
	n := t.recorded()
	byName := make([][]int64, numSpanNames)
	slowestChild := make([]int64, n)
	for i := int64(0); i < n; i++ {
		s := &t.spans[i]
		if s.end == 0 {
			continue // opened but not closed: cannot happen after a finished run
		}
		d := s.end - s.start
		byName[s.name] = append(byName[s.name], d)
		if s.parent >= 0 && s.parent < n && t.spans[s.parent].name == spEngineFork && d > slowestChild[s.parent] {
			slowestChild[s.parent] = d
		}
	}
	var forkjoin []int64
	for i := int64(0); i < n; i++ {
		if s := &t.spans[i]; s.name == spEngineFork && s.end != 0 {
			forkjoin = append(forkjoin, s.end-s.start-slowestChild[i])
		}
	}
	p50us := func(v []int64) float64 { return quantile(sortedCopy(v), 0.5) / 1e3 }
	m := map[string]float64{
		"core.root_us_p50":              p50us(byName[spEngineRun]),
		"core.leaf_atomic_us_p50":       p50us(byName[spLeafAtomic]),
		"core.leaf_body_us_p50":         p50us(byName[spLeafBody]),
		"core.forkjoin_overhead_us_p50": p50us(forkjoin),
		"stmlib.map_get_us":             p50us(byName[spStmlibGet]),
		"stmlib.map_put_us":             p50us(byName[spStmlibPut]),
	}
	for k, v := range t.extra {
		m[k] = v
	}
	return m
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var line []byte
	for i := int64(0); i < t.recorded(); i++ {
		s := &t.spans[i]
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, i, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, s.parent, 10)
		line = append(line, `,"trace":`...)
		line = strconv.AppendInt(line, s.trace, 10)
		line = append(line, `,"name":"`...)
		line = append(line, spanNames[s.name]...)
		line = append(line, `","start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		w.Write(line) // a write error resurfaces from Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if d := t.dropped.Load(); d > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans past the buffer were dropped\n", d)
	}
	return f.Close()
}
