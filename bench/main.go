// Command bench is the repository's end-to-end benchmark. It plays whole
// shard-local collection games — scalar, row and LDP — through the cluster
// engine, checks every game against the flat single-process reference for
// the same seed, and prints the metrics of untraced games and, when
// tracing, per-layer metrics from traced games, all measured from outside
// the program. README.md lists the workloads and metrics.
//
// From the repository root:
//
//	bash bench/run.sh -seed 1 [-workload W] [-seconds S] [-trace 0|1|DIR] [-out FILE]
//	bash bench/run.sh -compare A.json... -- B.json...
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/stats"
)

// minGames is the fewest timed games per workload and mode; games continue
// until -seconds have passed as well.
const minGames = 3

// setupSamples is how many set-ups setup_s is the median of: the timed
// games' own, topped up with one-round games, because a single set-up is
// short and noisy.
const setupSamples = 7

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: every workload, in order)")
	seed := fs.Int64("seed", 1, "seed the inputs and the game's master seed derive from")
	seconds := fs.Int("seconds", 15, "timed seconds per workload and mode (at least 3 games are timed)")
	trace := fs.String("trace", "0", "0: off; 1: also play traced games and report the per-layer metrics; DIR: as 1, and write each workload's spans to DIR/<workload>.json")
	out := fs.String("out", "", "write a result file (reproducibility header and metrics) to FILE")
	compare := fs.Bool("compare", false, "compare result files: -compare A.json... -- B.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *trace == "" || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -help")
		return 2
	}
	ws := workloads
	if *name != "" {
		w, ok := lookup(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	sp, err := loadSpec(specPath())
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace != "0"}
	if opt.trace && *trace != "1" {
		opt.traceDir = *trace
	}
	res := resultFile{Header: newHeader(opt)}
	for _, w := range ws {
		wr, err := measure(w, opt, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		res.Workloads = append(res.Workloads, *wr)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := res.summary(sp, len(ws) > 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

// header is the reproducibility header of a result file.
type header struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func newHeader(opt options) header {
	h := header{
		Seed: opt.seed, Seconds: opt.seconds.Seconds(), Trace: opt.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Commit != "unknown" {
			h.Commit += "+modified"
		}
	}
	return h
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	Name         string  `json:"name"`
	Rounds       int     `json:"rounds"`
	WarmupRounds int     `json:"warmup_rounds"`
	Games        int     `json:"games"`
	TracedGames  int     `json:"traced_games,omitempty"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	ReferenceS   float64 `json:"reference_s"`
	// Samples is the sample count behind each end-to-end metric: games for
	// the medians, pooled round intervals for the percentiles.
	Samples map[string]int `json:"samples"`
	Metrics []metric       `json:"metrics"`
	// PerGame holds the values behind the medians, one per timed game;
	// setup_s also holds the one-round games' set-ups.
	PerGame map[string][]float64 `json:"per_game"`
	Layers  []metric             `json:"layers,omitempty"`
	// Reconcile is the traced per-layer self times' sum over the round wall.
	// It departs from 1 only by overlapping fan-outs and clamped self times;
	// Clamps counts the self times that came out negative and were counted
	// as 0, and ClampedMs is what that added.
	Reconcile float64 `json:"reconcile,omitempty"`
	Clamps    int     `json:"clamps"`
	ClampedMs float64 `json:"clamped_ms"`
	// TracedPointsPerS is points_per_s of the traced games, the base of the
	// tracing overhead.
	TracedPointsPerS float64 `json:"traced_points_per_s,omitempty"`
}

// measure builds the workload's inputs, plays the reference once, a
// warm-up game, the untraced timed games and — with tracing — the traced
// timed games, and prints the workload's report.
func measure(w workload, opt options, log io.Writer) (*workloadResult, error) {
	in, err := w.inputs(opt.seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	want, err := w.reference(in)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	wr := &workloadResult{
		Name: w.name, Rounds: w.rounds, WarmupRounds: max(w.rounds/10, 1),
		ReferenceS: time.Since(start).Seconds(),
	}
	if _, err := w.play(in, newProbe(false, wr.WarmupRounds)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	plain := timed(w, in, want, false, opt.seconds, wr, log)
	if len(plain) == 0 {
		return nil, fmt.Errorf("no timed game succeeded")
	}
	wr.Games = len(plain)
	wr.PerGame = map[string][]float64{}
	intervals := 0
	for _, g := range plain {
		intervals += len(g.intervals)
		wr.PerGame["points_per_s"] = append(wr.PerGame["points_per_s"], g.pointsPerS())
		wr.PerGame["setup_s"] = append(wr.PerGame["setup_s"], g.setup.Seconds())
		wr.PerGame["peak_heap_MB"] = append(wr.PerGame["peak_heap_MB"], float64(g.peakHeap)/1e6)
	}
	for len(wr.PerGame["setup_s"]) < setupSamples {
		p := newProbe(false, 1)
		if _, err := w.play(in, p); err != nil {
			return nil, fmt.Errorf("set-up sample: %w", err)
		}
		wr.PerGame["setup_s"] = append(wr.PerGame["setup_s"], p.setupEnd.Seconds())
	}
	wr.Metrics = endToEnd(plain, wr.PerGame["setup_s"])
	wr.Samples = map[string]int{
		"points_per_s": len(plain), "round_ms_p50": intervals, "round_ms_p95": intervals,
		"setup_s": len(wr.PerGame["setup_s"]), "wire_B_per_round": len(plain), "peak_heap_MB": len(plain),
	}
	var traced []gameResult
	if opt.trace {
		if traced = timed(w, in, want, true, opt.seconds, wr, log); len(traced) == 0 {
			return nil, fmt.Errorf("no traced game succeeded")
		}
		wr.TracedGames = len(traced)
		var tot layers
		wr.Layers, tot = perLayer(traced)
		wr.Reconcile = float64(tot.recon) / float64(tot.wall)
		wr.Clamps, wr.ClampedMs = tot.clamps, float64(tot.clamped)/1e6
		var pps []float64
		for _, g := range traced {
			pps = append(pps, g.pointsPerS())
		}
		wr.TracedPointsPerS = stats.Median(pps)
		if opt.traceDir != "" {
			if err := writeSpans(opt.traceDir, w.name, traced); err != nil {
				return nil, err
			}
		}
	}
	wr.print(log, w)
	return wr, nil
}

// timed plays timed games until at least minGames have been attempted and
// the given time has passed. A game that errors or differs from the
// reference is counted as failed and left out of the metrics.
func timed(w workload, in *inputs, want *outcome, trace bool, seconds time.Duration, wr *workloadResult, log io.Writer) []gameResult {
	var games []gameResult
	start := time.Now()
	for n := 0; n < minGames || time.Since(start) < seconds; n++ {
		wr.Attempted++
		p := newProbe(trace, w.rounds)
		got, err := w.play(in, p)
		if err == nil {
			err = w.verify(got, want)
		}
		if err != nil {
			wr.Failed++
			fmt.Fprintf(log, "%s: game %d failed: %v\n", w.name, n+1, err)
			continue
		}
		games = append(games, p.result(w, got))
	}
	return games
}

func (wr *workloadResult) print(out io.Writer, w workload) {
	fmt.Fprintf(out, "== %s: %s\n", w.name, w.why)
	fmt.Fprintf(out, "   %d rounds x %d points; reference %.2fs; warm-up %d rounds; %d timed games, %d traced, %d of %d failed\n",
		w.rounds, w.arrivals(), wr.ReferenceS, wr.WarmupRounds, wr.Games, wr.TracedGames, wr.Failed, wr.Attempted)
	for _, m := range wr.Metrics {
		fmt.Fprintf(out, "   %-34s %14.6g %-6s (%d samples)\n", m.Name, m.Value, m.Unit, wr.Samples[m.Name])
	}
	if wr.TracedGames == 0 {
		return
	}
	pps := wr.Metrics[0].Value
	fmt.Fprintf(out, "   per layer, %d traced games: tracing overhead %+.1f%% on points_per_s (%.6g traced vs %.6g untraced)\n",
		wr.TracedGames, 100*(pps/wr.TracedPointsPerS-1), wr.TracedPointsPerS, pps)
	for _, m := range wr.Layers {
		fmt.Fprintf(out, "   %-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "   critical-path self times sum to %.2f%% of the round wall (%d clamped self times, %.3f ms)\n",
		100*wr.Reconcile, wr.Clamps, wr.ClampedMs)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary builds the result line: the metrics BENCHMARK.json lists as
// end-to-end for an untraced run, or as per-layer for a traced one, keyed
// "workload/metric" when the run covered several workloads.
func (r resultFile) summary(sp *spec, prefixed bool) (resultLine, error) {
	names := sp.EndToEnd
	if r.Header.Trace {
		names = sp.PerLayer
	}
	line := resultLine{Metrics: map[string]lineValue{}}
	for _, wr := range r.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		got := map[string]metric{}
		for _, m := range append(wr.Metrics, wr.Layers...) {
			got[m.Name] = m
		}
		for _, n := range names {
			m, ok := got[n.Name]
			if !ok {
				return line, fmt.Errorf("%s: BENCHMARK.json metric %s was not measured", wr.Name, n.Name)
			}
			key := m.Name
			if prefixed {
				key = wr.Name + "/" + m.Name
			}
			line.Metrics[key] = lineValue{Value: m.Value, Unit: m.Unit}
		}
	}
	line.Correct = line.Failed == 0
	return line, nil
}

// writeSpans writes one workload's traced games as DIR/<workload>.json.
func writeSpans(dir, name string, games []gameResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string   `json:"workload"`
		Games    [][]span `json:"games"`
	}{Workload: name}
	for _, g := range games {
		doc.Games = append(doc.Games, g.spans)
	}
	return writeJSON(filepath.Join(dir, name+".json"), doc)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
