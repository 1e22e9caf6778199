// Command perfbench is the repository's serving benchmark. It boots
// quq-serve backends (and, for the sharded workload, a quq-shard front
// with two replicas) in process on loopback ports, drives them from
// one load generator over HTTP, checks every response's logits bit for
// bit against the serving model, and prints the end-to-end metrics —
// or, with --trace 1, the per-layer metrics — as the last line of its
// output. See README.md for the workloads and metrics.
//
// Usage:
//
//	perfbench --workload nano-open --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"quq/internal/serve/metrics"
	"quq/internal/vit"
)

func main() {
	name := flag.String("workload", "", "workload to run: nano-open, zoo-batch or zoo-int")
	seed := flag.Uint64("seed", 1, "workload seed: the arrival schedule, images and key rotation derive from it")
	seconds := flag.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	meta, err := json.Marshal(res.meta)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n", meta, line)
	if !res.out.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", strings.Join(res.problems, "; "))
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is one run: the final line plus the run metadata printed
// before it.
type result struct {
	out      output
	meta     map[string]any
	problems []string
}

// minClosedRequests keeps enough closed-loop samples for the p90 to
// have at least ten beyond it.
const minClosedRequests = 110

func run(ctx context.Context, w workload, seed uint64, seconds float64, traced bool) (*result, error) {
	c := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	defer c.CloseIdleConnections()

	in, err := newInputs(w, seed, seconds)
	if err != nil {
		return nil, err
	}

	// Set-up: boot plus calibration through /v1/quantize, several
	// times; the last fleet serves the timed phase. A traced run sets up
	// once, with the build hooks installed.
	var tr *tracer
	setups := w.setups
	if traced {
		tr = newTracer()
		setups = 1
	}
	var f *fleet
	var setupS []float64
	var replies []time.Time
	for i := 0; i < setups; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, fmt.Errorf("closing set-up fleet: %w", err)
			}
		}
		var d time.Duration
		f, d, replies, err = setup(ctx, c, w, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}
	defer func() {
		if err := f.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing fleet:", err)
		}
	}()

	ref, err := computeRefs(ctx, w, f, in)
	if err != nil {
		return nil, err
	}
	res := &result{out: output{Correct: true, Metrics: map[string]metric{}}}
	res.meta = runMeta(w, seed, seconds, traced)
	res.meta["setup_s"] = setupS

	// One timed phase untraced; a traced run adds a second, identical
	// phase with span recording on, and compares the two.
	phases := []bool{false}
	if traced {
		phases = append(phases, true)
	}
	var sums []summary
	var deltas map[string]float64
	var tracedPhase *phase
	for pi, on := range phases {
		if err := warm(ctx, c, w, f, in); err != nil {
			return nil, err
		}
		runtime.GC()
		before, err := f.scrapeMetrics(ctx, c)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.reset()
			tr.on.Store(on)
		}
		ph := runPhase(ctx, c, w, f, in, ref, seconds, minClosedRequests, pi*1_000_000)
		if tr != nil {
			tr.on.Store(false)
		}
		after, err := f.scrapeMetrics(ctx, c)
		if err != nil {
			return nil, err
		}
		s := summarize(w, ph)
		sums = append(sums, s)
		res.out.Attempted += s.Sent
		res.out.Failed += s.Failed
		if s.Mismatch > 0 {
			res.problems = append(res.problems, fmt.Sprintf("%d responses differ from the serving model's logits", s.Mismatch))
		}
		deltas = metricDeltas(before, after)
		if deltas["serve.cache_misses"] != 0 {
			res.problems = append(res.problems, fmt.Sprintf("timed phase recalibrated %v times", deltas["serve.cache_misses"]))
		}
		tracedPhase = ph
	}
	res.meta["phases"] = sums
	res.meta["metrics_delta"] = deltas
	s := sums[0]
	// The tail is the highest percentile a phase of this workload leaves
	// ten samples beyond: p99 on the open loop, p90 on the closed loops.
	tailQ, tail := 0.90, s.P90
	if w.open {
		tailQ, tail = 0.99, s.P99
	}
	res.meta["tail_quantile"] = tailQ
	if tail.Beyond < 10 {
		res.problems = append(res.problems, fmt.Sprintf("only %d samples beyond the p%v latency; the run is too short", tail.Beyond, tailQ*100))
	}

	if !traced {
		m := res.out.Metrics
		m["latency_p25_ms"] = metric{s.P25, "ms"}
		m["slo_attainment"] = metric{s.SLO, "ratio"}
		m["throughput_img_s"] = metric{s.Throughput, "img/s"}
		m["success_rate"] = metric{s.Success, "ratio"}
		m["top1_agreement"] = metric{s.Agreement, "ratio"}
		m["setup_s"] = metric{median(setupS), "s"}
	} else {
		lr, err := measureLayers(ctx, w, f, in)
		if err != nil {
			return nil, err
		}
		if !lr.TracedMatchesFwd {
			res.problems = append(res.problems, "traced forward logits differ from QuantizedModel.Forward")
		}
		res.meta["layers"] = lr
		perLayer(res, w, tr, tracedPhase, sums, deltas, lr, replies)
	}
	res.out.Correct = len(res.problems) == 0
	res.meta["problems"] = res.problems
	return res, nil
}

// warm sends a few untimed requests so connections, scratch pools and
// the governor's window are in steady state before timing.
func warm(ctx context.Context, c *http.Client, w workload, f *fleet, in *inputs) error {
	for i := 0; i < w.warmup; i++ {
		r := in.plan[i%len(in.plan)]
		code, _, body, err := post(ctx, c, f.entry+"/v1/classify", in.body(w, -1, r))
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("warm-up: status %d: %s", code, body)
		}
	}
	return nil
}

// computeRefs evaluates every pool image on each backend's own served
// model and on the FP32 model of the same config and seed. A backend
// that does not serve on the workload's path (float or int) is an error.
func computeRefs(ctx context.Context, w workload, f *fleet, in *inputs) (*refs, error) {
	ref := &refs{logits: make([][][][]float64, len(f.backends)), fp32: make([][]int, len(w.keys))}
	var jobs []func()
	for b, be := range f.backends {
		ref.logits[b] = make([][][]float64, len(w.keys))
		for ki, k := range w.keys {
			qm, _, err := be.Registry().Get(ctx, k)
			if err != nil {
				return nil, fmt.Errorf("reference model %s: %w", k, err)
			}
			if qm.IntPath() != w.intPath {
				return nil, fmt.Errorf("backend %d serves %s with int path %v, want %v", b, k, qm.IntPath(), w.intPath)
			}
			ref.logits[b][ki] = make([][]float64, w.pool)
			for i := range in.images[ki] {
				jobs = append(jobs, func() { ref.logits[b][ki][i] = qm.Forward(in.images[ki][i]).Data() })
			}
		}
	}
	for ki, k := range w.keys {
		cfg := config(k)
		m := vit.New(cfg, fp32Seed(cfg.Name))
		ref.fp32[ki] = make([]int, w.pool)
		for i := range in.images[ki] {
			jobs = append(jobs, func() { ref.fp32[ki][i] = m.Forward(in.images[ki][i], vit.ForwardOpts{}).ArgMax() })
		}
	}
	next := make(chan func())
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				j()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return ref, nil
}

// metricDeltas reads the program's own counters over a timed phase.
func metricDeltas(before, after *metrics.Exposition) map[string]float64 {
	d := func(name string) float64 { return delta(before, after, name) }
	out := map[string]float64{
		"shard.retries":      d("quq_shard_retries_total"),
		"shard.failovers":    d("quq_shard_failovers_total"),
		"serve.shed":         d("quq_serve_shed_total"),
		"serve.rejected":     d("quq_serve_rejected_total"),
		"serve.cache_misses": d("quq_serve_model_cache_misses_total"),
		"serve.batches":      d("quq_serve_batch_size"),
		"serve.images":       d("quq_serve_images_total"),
	}
	if out["serve.batches"] > 0 {
		out["serve.batch_size_mean"] = out["serve.images"] / out["serve.batches"]
	}
	return out
}

// runMeta records what the numbers were measured on.
func runMeta(w workload, seed uint64, seconds float64, traced bool) map[string]any {
	m := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuFeatures(),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"source":     sourceDigest(),
		"clients":    clients,
		"keys":       keyNames(w),
	}
	m["latency_limit_ms"] = ms(w.limit)
	if w.open {
		m["rate_per_s"] = w.rate
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m["commit"] = s.Value
			}
		}
	}
	return m
}

func keyNames(w workload) []string {
	out := make([]string, len(w.keys))
	for i, k := range w.keys {
		out[i] = k.String()
	}
	return out
}

// sourceDigest fingerprints the program's source (every .go and .s file
// and go.mod under the working directory), standing in for the commit
// when the checkout carries no version control.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".s") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		//quq:errdrop-ok hash.Hash.Write never returns an error
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
