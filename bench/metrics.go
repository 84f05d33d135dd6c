package main

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/wire"
)

// warmRounds is how many of each game's first rounds round_ms_p50/p95
// leave out.
const warmRounds = 10

// metric is one named measurement.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// gameResult is one game's measurements.
type gameResult struct {
	rounds    int
	setup     time.Duration // fleet build until every top slot is configured
	run       time.Duration // end of set-up until the result returned
	points    int           // arrivals over the game
	intervals []float64     // ms from each OnRound callback to the next, rounds warmRounds+1..R
	wireBytes int64         // directive + reply bytes of rounds 1..R
	peakHeap  uint64
	layers    *layers // traced games only
	spans     []span  // traced games only
}

func (g gameResult) pointsPerS() float64 { return float64(g.points) / g.run.Seconds() }

// result turns a finished game's probe into its measurements.
func (p *probe) result(w workload, o *outcome) gameResult {
	g := gameResult{
		rounds:    p.rounds,
		setup:     p.setupEnd,
		run:       p.end - p.setupEnd,
		points:    p.rounds * w.arrivals(),
		wireBytes: p.req[roundStage].Load() + p.rep[roundStage].Load(),
		peakHeap:  p.heapPeak,
	}
	for r := warmRounds; r < len(p.posted); r++ {
		g.intervals = append(g.intervals, float64(p.posted[r]-p.posted[r-1])/1e6)
	}
	if p.trace {
		g.layers = p.layers(o)
		g.spans = p.rootSpans()
	}
	return g
}

// endToEnd summarises the untraced games: medians across games, and
// percentiles of the round intervals pooled across games; set-up is the
// median of the given set-up samples.
func endToEnd(games []gameResult, setups []float64) []metric {
	var pps, wireB, heap, iv []float64
	for _, g := range games {
		pps = append(pps, g.pointsPerS())
		wireB = append(wireB, float64(g.wireBytes)/float64(g.rounds))
		heap = append(heap, float64(g.peakHeap)/1e6)
		iv = append(iv, g.intervals...)
	}
	sort.Float64s(iv)
	return []metric{
		{"points_per_s", "1/s", stats.Median(pps)},
		{"round_ms_p50", "ms", stats.QuantileSorted(iv, 0.5)},
		{"round_ms_p95", "ms", stats.QuantileSorted(iv, 0.95)},
		{"setup_s", "s", stats.Median(setups)},
		{"wire_B_per_round", "B", stats.Median(wireB)},
		{"peak_heap_MB", "MB", stats.Median(heap)},
	}
}

// layers are a traced game's per-layer totals over its rounds (end of
// set-up to the last OnRound), plus the page-out tail after them.
type layers struct {
	rounds int
	wall   time.Duration // end of set-up to the last OnRound

	self, wait          time.Duration // the round wall outside its fan-outs; the union of the fan-outs' spans
	fanouts, calls      int
	transport, handle   time.Duration // critical path: per fan-out span − its last top-level handle; that handle
	busy                time.Duration // every leaf handle
	generate, summarize time.Duration // Σ leaf phase nanos
	classify, codec     time.Duration
	ingested            int64
	aggSelf, aggMerge   time.Duration
	merge               time.Duration // the coordinator's own fold (Timing.Merge)
	threshold, spec     time.Duration
	// recon is Σ critical-path self times + collect's self time. It equals
	// the round wall plus the time fan-outs overlapped plus the clamped time,
	// so it departs from the wall only when either is not 0.
	recon   time.Duration
	clamps  int           // self times that came out negative and were counted as 0
	clamped time.Duration // what those clamps added

	reqBytes, repBytes, configBytes int64
	decodes                         []float64 // µs per sampled round reply
	pageout                         time.Duration
	paged                           int
	alloc, gcPause                  uint64
}

func (l *layers) add(o *layers) {
	l.rounds += o.rounds
	l.wall += o.wall
	l.self += o.self
	l.wait += o.wait
	l.fanouts += o.fanouts
	l.calls += o.calls
	l.transport += o.transport
	l.handle += o.handle
	l.busy += o.busy
	l.generate += o.generate
	l.summarize += o.summarize
	l.classify += o.classify
	l.codec += o.codec
	l.ingested += o.ingested
	l.aggSelf += o.aggSelf
	l.aggMerge += o.aggMerge
	l.merge += o.merge
	l.threshold += o.threshold
	l.spec += o.spec
	l.recon += o.recon
	l.clamps += o.clamps
	l.clamped += o.clamped
	l.reqBytes += o.reqBytes
	l.repBytes += o.repBytes
	l.configBytes += o.configBytes
	l.decodes = append(l.decodes, o.decodes...)
	l.pageout += o.pageout
	l.paged += o.paged
	l.alloc += o.alloc
	l.gcPause += o.gcPause
}

// layers attributes a traced game's round window to the layers. Along each
// fan-out's critical path the self times — transport, aggregator, worker
// phases, worker codec, probe — telescope to the fan-out's span, and the
// coordinator's self time is the round wall outside the union of the
// fan-outs. recon adds the self times back up: it exceeds the wall by the
// time fan-outs overlapped (counted in two fan-outs) and by any clamped
// self time, the two ways this attribution can misplace time.
func (p *probe) layers(o *outcome) *layers {
	last := p.posted[len(p.posted)-1]
	l := &layers{
		rounds:      p.rounds,
		wall:        last - p.setupEnd,
		merge:       o.merge,
		threshold:   p.threshold,
		spec:        p.spec,
		reqBytes:    p.req[roundStage].Load(),
		repBytes:    p.rep[roundStage].Load(),
		configBytes: p.req[setupStage].Load(),
		paged:       o.paged,
		alloc:       p.memEnd.TotalAlloc - p.memSetup.TotalAlloc,
		gcPause:     p.memEnd.PauseTotalNs - p.memSetup.PauseTotalNs,
		aggMerge:    time.Duration(p.mergeEnd - p.mergeSetup),
	}
	kids := make([][]int32, len(p.spans))
	var tops []int32
	for i := range p.spans {
		s := &p.spans[i]
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
		inRounds := time.Duration(s.Start) >= p.setupEnd && time.Duration(s.Start) < last
		switch {
		case s.Name == "cluster.call" && s.stage == roundStage:
			tops = append(tops, int32(i))
		case s.Name == "cluster.call" && s.stage == endStage:
			l.pageout += s.dur()
		case s.Name == "worker.handle" && inRounds:
			l.busy += s.dur()
			l.generate += time.Duration(s.GenerateNanos)
			l.summarize += time.Duration(s.SummarizeNanos)
			l.classify += time.Duration(s.ClassifyNanos)
			l.codec += l.nonneg(s.dur() - s.phases())
			if s.SummarizeNanos > 0 {
				l.ingested += int64(s.Count)
			}
		}
	}
	l.calls = len(tops)
	// A round fan-out calls every slot once, so its calls are the ones with
	// the same per-slot call number.
	sort.SliceStable(tops, func(i, j int) bool { return p.spans[tops[i]].seq < p.spans[tops[j]].seq })
	var fans [][2]int64
	for i := 0; i < len(tops); {
		j := i + 1
		for ; j < len(tops) && p.spans[tops[j]].seq == p.spans[tops[i]].seq; j++ {
		}
		l.fanouts++
		lo, hi := p.fanBounds(tops[i:j])
		fans = append(fans, [2]int64{lo, hi})
		l.recon += p.critical(tops[i:j], kids, l, true)
		i = j
	}
	l.wait = union(fans)
	l.self = l.nonneg(l.wall - l.wait)
	l.recon += l.self
	for _, raw := range p.replies {
		start := time.Now()
		if _, err := wire.DecodeReport(raw); err == nil {
			l.decodes = append(l.decodes, float64(time.Since(start))/1e3)
		}
	}
	return l
}

// nonneg counts a self time that came out negative as 0 and tallies the
// clamp, which would otherwise pass unseen into recon.
func (l *layers) nonneg(d time.Duration) time.Duration {
	if d >= 0 {
		return d
	}
	l.clamps++
	l.clamped -= d
	return 0
}

// fanBounds is a fan-out's span: from its first call's start to its last
// call's end, so a call goroutine that starts late counts as waiting.
func (p *probe) fanBounds(calls []int32) (lo, hi int64) {
	lo, hi = p.spans[calls[0]].Start, p.spans[calls[0]].End
	for _, c := range calls[1:] {
		lo, hi = min(lo, p.spans[c].Start), max(hi, p.spans[c].End)
	}
	return lo, hi
}

func (p *probe) fanSpan(calls []int32) time.Duration {
	lo, hi := p.fanBounds(calls)
	return time.Duration(hi - lo)
}

// union is the length of the union of the intervals.
func union(ivs [][2]int64) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	for _, iv := range ivs {
		lo := max(iv[0], end)
		if iv[1] > lo {
			total += iv[1] - lo
		}
		end = max(end, iv[1])
	}
	return time.Duration(total)
}

// critical splits a fan-out along its critical path — the call that ends
// last, since the fan-out ends with it — adds the self times to l and
// returns their sum. The fan-out's span minus that call's handle is
// transport, which includes the call's late launch and any wait for a core
// while other handles run; an aggregator's handle minus its own child
// fan-out is agg.self, and the child fan-out recurses; a worker's handle
// splits into its phase nanos and the codec remainder. The harness's
// decoding of a worker reply after its handle ended counts as probe time.
func (p *probe) critical(calls []int32, kids [][]int32, l *layers, top bool) time.Duration {
	fan := p.fanSpan(calls)
	last := calls[0]
	for _, c := range calls[1:] {
		if p.spans[c].End > p.spans[last].End {
			last = c
		}
	}
	if len(kids[last]) == 0 {
		l.transport += fan
		return fan
	}
	hi := kids[last][0]
	h := &p.spans[hi]
	if top {
		l.handle += h.dur()
	}
	probe := time.Duration(h.ProbeNanos)
	transport := l.nonneg(fan - h.dur() - probe)
	l.transport += transport
	sum := transport + probe
	switch {
	case h.Name != "agg.handle":
		// Phases plus codec; a codec clamp is tallied with wire.worker_codec.
		return sum + max(h.dur(), h.phases())
	case len(kids[hi]) == 0:
		l.aggSelf += h.dur()
		return sum + h.dur()
	default:
		self := l.nonneg(h.dur() - p.fanSpan(kids[hi]))
		l.aggSelf += self
		return sum + self + p.critical(kids[hi], kids, l, false)
	}
}

// rootSpans adds the game's root spans — set-up, one per posted round, and
// the end game — parents every top-level call under the root its start falls
// in, and stamps every span with its round and the round's obs.TraceID.
func (p *probe) rootSpans() []span {
	spans := p.spans
	base := int32(len(spans))
	spans = append(spans, span{Name: "setup", End: int64(p.setupEnd), Parent: -1})
	prev := p.setupEnd
	for r, at := range p.posted {
		spans = append(spans, span{Name: "round", Start: int64(prev), End: int64(at), Parent: -1, Round: r + 1, Trace: obs.TraceID(r + 1)})
		prev = at
	}
	spans = append(spans, span{Name: "endgame", Start: int64(prev), End: int64(p.end), Parent: -1, Round: len(p.posted) + 1})
	roots := spans[base:]
	for i := range spans[:base] {
		s := &spans[i]
		if s.Parent >= 0 {
			// Parents open before their children, so they are already stamped.
			s.Round, s.Trace = spans[s.Parent].Round, spans[s.Parent].Trace
			continue
		}
		k := sort.Search(len(roots), func(k int) bool { return roots[k].End > s.Start })
		k = min(k, len(roots)-1)
		s.Parent = base + int32(k)
		s.Round, s.Trace = roots[k].Round, roots[k].Trace
	}
	return spans
}

// perLayer pools the traced games, divides by the rounds they played and
// returns the pooled totals as well.
func perLayer(games []gameResult) ([]metric, layers) {
	var t layers
	for _, g := range games {
		t.add(g.layers)
	}
	r := float64(t.rounds)
	perRoundMs := func(d time.Duration) float64 { return float64(d) / 1e6 / r }
	perRoundUs := func(d time.Duration) float64 { return float64(d) / 1e3 / r }
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	sort.Float64s(t.decodes)
	return []metric{
		{"collect.self_ms_per_round", "ms", perRoundMs(t.self)},
		{"collect.wait_ms_per_round", "ms", perRoundMs(t.wait)},
		{"collect.merge_ms_per_round", "ms", perRoundMs(t.merge)},
		{"collect.fanouts_per_round", "count", float64(t.fanouts) / r},
		{"trim.threshold_us_per_round", "us", perRoundUs(t.threshold)},
		{"attack.spec_us_per_round", "us", perRoundUs(t.spec)},
		{"cluster.calls_per_round", "count", float64(t.calls) / r},
		{"cluster.transport_ms_per_round", "ms", perRoundMs(t.transport)},
		{"cluster.handle_ms_per_round", "ms", perRoundMs(t.handle)},
		{"cluster.handle_busy_ms_per_round", "ms", perRoundMs(t.busy)},
		{"cluster.classify_ms_per_round", "ms", perRoundMs(t.classify)},
		{"arrival.generate_ms_per_round", "ms", perRoundMs(t.generate)},
		{"summary.ingest_ms_per_round", "ms", perRoundMs(t.summarize)},
		{"summary.ingest_points_per_s", "1/s", ratio(float64(t.ingested), t.summarize.Seconds())},
		{"wire.directive_B_per_round", "B", float64(t.reqBytes) / r},
		{"wire.report_B_per_round", "B", float64(t.repBytes) / r},
		{"wire.config_B", "B", float64(t.configBytes) / float64(len(games))},
		{"wire.worker_codec_ms_per_round", "ms", perRoundMs(t.codec)},
		{"wire.report_decode_us", "us", stats.QuantileSorted(t.decodes, 0.5)},
		{"agg.self_ms_per_round", "ms", perRoundMs(t.aggSelf)},
		{"agg.merge_ms_per_round", "ms", perRoundMs(t.aggMerge)},
		{"rowstore.pageout_ms", "ms", float64(t.pageout) / 1e6 / float64(len(games))},
		{"rowstore.pageout_rows_per_s", "1/s", ratio(float64(t.paged), t.pageout.Seconds())},
		{"runtime.alloc_MB_per_round", "MB", float64(t.alloc) / 1e6 / r},
		{"runtime.gc_pause_ms_per_round", "ms", float64(t.gcPause) / 1e6 / r},
	}, t
}
