package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/collect"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/trim"
	"repro/internal/wire"
)

// The stages of one game, as the probe sees them from the coordinator's
// transport and the OnRound callback.
const (
	setupStage = iota // until every top slot's first call (the configure) returned
	roundStage        // rounds 1..R
	endStage          // after round R is posted: kept-row page-out and the stop broadcast
)

// The runtime metrics behind peak_heap_MB: the heap-object bytes it peaks
// over, and the completed GC cycles that tell when set-up's garbage has
// been collected.
const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	gcCycles    = "/gc/cycles/total:gc-cycles"
)

// maxReplySample bounds the round replies a traced game keeps for the
// report-decode timing taken after the game.
const maxReplySample = 256

// probe measures one game from outside the program. It wraps the
// coordinator's transport, every worker and aggregator handler and every
// aggregator→child link, and it is the game's OnRound hook. An untraced
// probe only counts bytes, stamps the end of set-up and samples the heap at
// each posted round; a traced probe also records one span per call and
// handle, attaches the phase nanos each reply carries, and times both
// strategies.
type probe struct {
	trace  bool
	rounds int
	t0     time.Time

	stage      atomic.Int32
	req, rep   [3]atomic.Int64 // directive and reply bytes through the coordinator's transport, by stage
	mu         sync.Mutex
	configured []bool // per top slot: first call returned
	pending    int    // top slots still unconfigured
	setupEnd   time.Duration
	gcSetup    uint64 // GC cycles completed when set-up ended

	// Written only on the coordinator goroutine (OnRound) and after the game.
	posted   []time.Duration
	end      time.Duration
	heap     []metrics.Sample
	heapPeak uint64

	// Traced games only.
	spans     []span // guarded by mu
	replies   [][]byte
	threshold time.Duration
	spec      time.Duration
	memSetup  runtime.MemStats
	memEnd    runtime.MemStats

	// aggMet is the aggregators' metrics registry; its merge-nanos counter
	// is read at set-up end and at the last OnRound.
	aggMet               *obs.Registry
	mergeSetup, mergeEnd int64
}

func newProbe(trace bool, rounds int) *probe {
	return &probe{trace: trace, rounds: rounds, heap: []metrics.Sample{{Name: heapObjects}, {Name: gcCycles}}}
}

// start collects the previous game's garbage and starts the game clock.
func (p *probe) start() {
	runtime.GC()
	p.t0 = time.Now()
}

func (p *probe) now() time.Duration { return time.Since(p.t0) }

// finish stamps the result's return and takes the post-page-out heap sample.
func (p *probe) finish() {
	p.end = p.now()
	p.sampleHeap(true)
}

// sampleHeap folds the heap-object bytes into the peak. A round's sample
// counts only once a GC cycle that started after set-up has completed:
// until then the heap still holds the configure fan-out's encoded buffers,
// and how much of them a peak catches depends on whether a collection
// happened to run during set-up. The sample after page-out always counts.
func (p *probe) sampleHeap(always bool) {
	metrics.Read(p.heap)
	if always || p.heap[1].Value.Uint64() >= p.gcSetup+2 {
		p.heapPeak = max(p.heapPeak, p.heap[0].Value.Uint64())
	}
}

// onRound is the game's OnRound hook.
func (p *probe) onRound(rec collect.RoundRecord) {
	p.posted = append(p.posted, p.now())
	p.sampleHeap(false)
	if rec.Round == p.rounds {
		if p.trace {
			runtime.ReadMemStats(&p.memEnd)
			p.mergeEnd = p.aggMerge()
		}
		p.stage.Store(endStage)
	}
}

// configuredSlot notes that top slot w's first call returned; the last one
// ends set-up.
func (p *probe) configuredSlot(w int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.configured[w] {
		return
	}
	p.configured[w] = true
	if p.pending--; p.pending == 0 {
		p.setupEnd = p.now()
		gc := []metrics.Sample{{Name: gcCycles}}
		metrics.Read(gc)
		p.gcSetup = gc[0].Value.Uint64()
		if p.trace {
			runtime.ReadMemStats(&p.memSetup)
			p.mergeSetup = p.aggMerge()
		}
		p.stage.Store(roundStage)
	}
}

// aggMerge reads the aggregators' own merge time so far, the counter
// `trimlab aggregator -obs-addr` exports (0 without aggregators).
func (p *probe) aggMerge() int64 {
	return p.aggMet.Counter("trimlab_agg_merge_nanos_total").Value()
}

// span is one traced interval. Times are nanoseconds since the game clock
// started; Parent indexes the game's span list (-1: a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Round  int    `json:"round"`
	Trace  uint64 `json:"trace"`
	Slot   int    `json:"slot"` // top slot of a call; leaf or node index of a handle
	stage  int32
	seq    int32 // top-level calls: the call's number on its slot

	ReqBytes int `json:"req_bytes,omitempty"`
	RepBytes int `json:"rep_bytes,omitempty"`

	// The phase timings a worker put on its reply.
	GenerateNanos  int64 `json:"generate_ns,omitempty"`
	SummarizeNanos int64 `json:"summarize_ns,omitempty"`
	ClassifyNanos  int64 `json:"classify_ns,omitempty"`
	Count          int   `json:"count,omitempty"`

	// ProbeNanos is the harness's own time decoding the reply after End,
	// still inside the parent span; self times exclude it.
	ProbeNanos int64 `json:"probe_ns,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s *span) phases() time.Duration {
	return time.Duration(s.GenerateNanos + s.SummarizeNanos + s.ClassifyNanos)
}

func (p *probe) open(name string, parent int32, slot int) int32 {
	start := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spans = append(p.spans, span{Name: name, Start: int64(start), End: -1, Parent: parent, Slot: slot})
	return int32(len(p.spans) - 1)
}

func (p *probe) close(i int32, end time.Duration, fill func(*span)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &p.spans[i]
	s.End = int64(end)
	if fill != nil {
		fill(s)
	}
}

// transport wraps the coordinator's transport; top[w] is the handler the
// slot reaches (in-process, or served over TCP).
func (p *probe) transport(tr cluster.Transport, top []*probeHandler) cluster.Transport {
	p.configured = make([]bool, len(top))
	p.pending = len(top)
	return &probeTransport{Transport: tr, p: p, top: top, seq: make([]atomic.Int32, len(top))}
}

type probeTransport struct {
	cluster.Transport
	p   *probe
	top []*probeHandler
	seq []atomic.Int32 // calls made per slot
}

func (t *probeTransport) Call(w int, req []byte) ([]byte, error) {
	p := t.p
	st := p.stage.Load()
	id, seq := int32(-1), int32(0)
	if p.trace {
		id = p.open("cluster.call", -1, w)
		seq = t.seq[w].Add(1)
		t.top[w].inflight.Store(id)
	}
	out, err := t.Transport.Call(w, req)
	p.req[st].Add(int64(len(req)))
	p.rep[st].Add(int64(len(out)))
	if p.trace {
		p.close(id, p.now(), func(s *span) {
			s.stage, s.seq, s.ReqBytes, s.RepBytes = st, seq, len(req), len(out)
			if st == roundStage && err == nil && len(p.replies) < maxReplySample {
				p.replies = append(p.replies, append([]byte(nil), out...))
			}
		})
	}
	if st == setupStage {
		p.configuredSlot(w)
	}
	return out, err
}

// handler wraps one worker or aggregator node; id is its leaf or node index.
func (p *probe) handler(name string, id int, h cluster.Handler) *probeHandler {
	ph := &probeHandler{Handler: h, p: p, name: name, id: id}
	ph.inflight.Store(-1)
	ph.handling.Store(-1)
	return ph
}

type probeHandler struct {
	cluster.Handler
	p    *probe
	name string
	id   int

	inflight atomic.Int32 // span of the call delivering to this handler
	handling atomic.Int32 // this handler's own open span
}

func (h *probeHandler) Handle(req []byte) ([]byte, error) {
	p := h.p
	if !p.trace {
		return h.Handler.Handle(req)
	}
	id := p.open(h.name, h.inflight.Load(), h.id)
	h.handling.Store(id)
	out, err := h.Handler.Handle(req)
	end := p.now()
	var rep *wire.Report
	if err == nil && h.name == "worker.handle" {
		// A reply this handler just encoded decodes; its caller decodes it next.
		rep, _ = wire.DecodeReport(out)
	}
	probeNanos := int64(p.now() - end)
	p.close(id, end, func(s *span) {
		s.ProbeNanos = probeNanos
		if rep != nil {
			s.GenerateNanos, s.SummarizeNanos, s.ClassifyNanos = rep.GenerateNanos, rep.SummarizeNanos, rep.ClassifyNanos
			if rep.SummarizeNanos > 0 {
				s.Count = rep.Count
			}
		}
	})
	return out, err
}

// probeChild wraps one aggregator→child link.
type probeChild struct {
	agg.Child
	parent, child *probeHandler
}

func (c *probeChild) Call(req []byte) ([]byte, error) {
	p := c.child.p
	if !p.trace {
		return c.Child.Call(req)
	}
	id := p.open("agg.child_call", c.parent.handling.Load(), c.child.id)
	c.child.inflight.Store(id)
	out, err := c.Child.Call(req)
	p.close(id, p.now(), nil)
	return out, err
}

// timed wraps both strategies of a traced game so their per-round decisions
// are timed. The adversary keeps its injection spec, which the shard-local
// engines require.
func (p *probe) timed(s experiments.Scheme) (experiments.Scheme, error) {
	si, ok := s.Adversary.(attack.SpecInjector)
	if !ok {
		return s, fmt.Errorf("bench: adversary %T has no injection spec", s.Adversary)
	}
	s.Collector = timedCollector{Strategy: s.Collector, total: &p.threshold}
	s.Adversary = timedAdversary{SpecInjector: si, total: &p.spec}
	return s, nil
}

type timedCollector struct {
	trim.Strategy
	total *time.Duration
}

func (c timedCollector) Threshold(r int, prev trim.Observation) float64 {
	start := time.Now()
	pct := c.Strategy.Threshold(r, prev)
	*c.total += time.Since(start)
	return pct
}

type timedAdversary struct {
	attack.SpecInjector
	total *time.Duration
}

func (a timedAdversary) InjectionSpec(r int, prev attack.Observation) attack.InjectionSpec {
	start := time.Now()
	spec := a.SpecInjector.InjectionSpec(r, prev)
	*a.total += time.Since(start)
	return spec
}
