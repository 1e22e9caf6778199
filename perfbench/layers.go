package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/rng"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// opNames are the vit ops between quantization sites, in the order the
// per-layer metrics list them.
var opNames = []string{"embed", "layernorm", "qkv", "attn_scores", "softmax", "attn_ctx",
	"proj", "fc1", "gelu", "fc2", "residual", "merge", "head"}

// opOf names the op whose work ends at a tap site: the interval from
// the previous site to this one is that op's self time. Swin's window
// partition and its inverse run between blocks, so they land in the
// following site's op (layernorm, or merge at a stage boundary).
func opOf(site string) (string, error) {
	switch site {
	case "patch.in", "embed.out":
		return "embed", nil
	case "ln1.out", "ln2.out", "head.in":
		return "layernorm", nil
	case "attn.q", "attn.k", "attn.v":
		return "qkv", nil
	case "attn.softmax_in":
		return "attn_scores", nil
	case "attn.softmax_out":
		return "softmax", nil
	case "attn.proj_in":
		return "attn_ctx", nil
	case "attn.proj_out":
		return "proj", nil
	case "resid1.out", "resid2.out":
		return "residual", nil
	case "mlp.gelu_in":
		return "fc1", nil
	case "mlp.gelu_out":
		return "gelu", nil
	case "mlp.fc2_out":
		return "fc2", nil
	case "merge.in", "merge.out":
		return "merge", nil
	}
	return "", fmt.Errorf("tap site %q belongs to no known op", site)
}

// gemmShape is one GEMM call's geometry: [m,k]·[k,n].
type gemmShape struct{ m, k, n int }

func (s gemmShape) flops() float64 { return 2 * float64(s.m) * float64(s.k) * float64(s.n) }

// bytes is the operand and result footprint at 8 bytes per element
// (float64 and int64 alike), computed from the shape, not measured.
func (s gemmShape) bytes() float64 { return 8 * float64(s.m*s.k+s.k*s.n+s.m*s.n) }

// timedEngine is a vit.GEMMEngine that times every weight GEMM. It runs
// the wrapped engine (the int path) when there is one and the layer's
// own float ApplyInto otherwise or when the engine declines — exactly
// what the forward would do without the wrapper.
type timedEngine struct {
	inner    vit.GEMMEngine
	elapsed  time.Duration
	declines map[string]int // weight sites the engine handed back to the float path
	shapes   map[gemmShape]int
}

func (e *timedEngine) Linear(site vit.Site, l *vit.Linear, dst, x *tensor.Tensor) bool {
	start := time.Now()
	if e.inner == nil {
		l.ApplyInto(dst, x)
	} else if !e.inner.Linear(site, l, dst, x) {
		e.declines[site.Name]++
		l.ApplyInto(dst, x)
	}
	e.elapsed += time.Since(start)
	e.shapes[gemmShape{x.Dim(0), x.Dim(1), l.Out()}]++
	return true
}

// forwardTrace accumulates the per-op split of traced forwards.
type forwardTrace struct {
	forwards int
	op       map[string]time.Duration
	quant    time.Duration
	attn     map[gemmShape]int // attention GEMM shapes over all forwards
}

// tracedForward runs qm's forward with a tap that applies the model's
// own activation quantizers, as QuantizedModel.ForwardOpts does, and
// times the gaps between sites (op self time) apart from the quantizer
// calls (quantizer time).
func tracedForward(qm *ptq.QuantizedModel, img *tensor.Tensor, eng *timedEngine, ft *forwardTrace) (*tensor.Tensor, error) {
	var err error
	var qRows, qDim int
	last := time.Now()
	tap := func(site vit.Site, x *tensor.Tensor) *tensor.Tensor {
		start := time.Now()
		op, oerr := opOf(site.Name)
		if oerr != nil {
			err = oerr
		}
		ft.op[op] += start.Sub(last)
		switch site.Name {
		case "attn.q":
			qRows, qDim = x.Dim(0), x.Dim(1)
		case "attn.softmax_in":
			// scores are [nSeq·heads·T, T] over q's [nSeq·T, dim].
			t := x.Dim(1)
			heads := x.Dim(0) / qRows
			seqs := qRows / t
			dh := qDim / heads
			ft.attn[gemmShape{t, dh, t}] += seqs * heads // Q·Kᵀ
			ft.attn[gemmShape{t, t, dh}] += seqs * heads // P·V
		}
		if tq, ok := qm.Acts[site.Key()]; ok {
			x = tq.Apply(x)
		}
		end := time.Now()
		ft.quant += end.Sub(start)
		last = end
		return x
	}
	out := qm.Model.Forward(img, vit.ForwardOpts{Tap: tap, Engine: eng})
	ft.op["head"] += time.Since(last)
	ft.forwards++
	return out, err
}

// layerReport is the per-layer view of the model layers (ptq, vit,
// tensor) measured offline on the served models, with the fleet idle.
type layerReport struct {
	ForwardP50MS     float64            `json:"forward_ms_p50"`
	Forwards         int                `json:"forwards"`
	QuantizerMS      float64            `json:"quantizer_ms"`
	IntGEMMMS        float64            `json:"int_gemm_ms"`
	IntDeclines      map[string]int     `json:"int_declines_per_forward"`
	Allocs           float64            `json:"allocs_per_forward"`
	Bytes            float64            `json:"bytes_per_forward"`
	CalibrateS       float64            `json:"calibrate_s"`
	CollectS         float64            `json:"collect_s"`
	PrepareIntS      float64            `json:"prepare_int_s"`
	OpMS             map[string]float64 `json:"op_ms"`
	GEMMNs           float64            `json:"gemm_ns_per_forward"`
	GEMMGflops       float64            `json:"gemm_gflops"`
	IntGEMMNs        float64            `json:"int_gemm_ns_per_forward"`
	IntGEMMGflops    float64            `json:"int_gemm_gflops"`
	GEMMBytes        float64            `json:"gemm_bytes_per_forward"`
	TracedMatchesFwd bool               `json:"traced_logits_match"`
}

// measureLayers times the model layers on the workload's keys and pool
// images. It needs the served models, so it runs after the timed phases.
func measureLayers(ctx context.Context, w workload, f *fleet, in *inputs) (*layerReport, error) {
	rep := &layerReport{OpMS: map[string]float64{}, IntDeclines: map[string]int{}, TracedMatchesFwd: true}
	reg := f.backends[0].Registry()
	nk := float64(len(w.keys))
	var fwd []float64
	var allocs, bytes uint64
	var quant, intGEMM time.Duration
	var gemmNs, gemmFlops, intNs, intFlops, gemmBytes float64
	ops := map[string]time.Duration{}
	forwards := 0
	for ki, k := range w.keys {
		qm, _, err := reg.Get(ctx, k)
		if err != nil {
			return nil, fmt.Errorf("registry %s: %w", k, err)
		}
		imgs := in.images[ki]

		// ptq: the untraced forward, its latency and allocations. ViT-Nano
		// forwards are short, so take more of them.
		n := 16
		if w.images == 1 {
			n = 4 * len(imgs)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < n; i++ {
			start := time.Now()
			qm.Forward(imgs[i%len(imgs)])
			fwd = append(fwd, msSince(start))
		}
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		forwards += n

		// ptq integer-plan preparation, then the vit and ptq splits:
		// traced forwards with a timing engine around the integer engine
		// (when the model serves on it) or the float GEMMs.
		start := time.Now()
		ie, err := ptq.NewIntEngine(qm)
		if err != nil {
			return nil, fmt.Errorf("int engine %s: %w", k, err)
		}
		rep.PrepareIntS += time.Since(start).Seconds() / nk
		eng := &timedEngine{shapes: map[gemmShape]int{}, declines: map[string]int{}}
		if qm.IntPath() {
			eng.inner = ie
		}
		ft := &forwardTrace{op: map[string]time.Duration{}, attn: map[gemmShape]int{}}
		traced := imgs
		if w.images > 1 {
			traced = imgs[:8] // zoo forwards are long; eight give a steady split
		}
		for _, img := range traced {
			out, err := tracedForward(qm, img, eng, ft)
			if err != nil {
				return nil, err
			}
			if !sameBits(out.Data(), qm.Forward(img).Data()) {
				rep.TracedMatchesFwd = false
			}
		}
		for op, d := range ft.op {
			ops[op] += d / time.Duration(ft.forwards)
		}
		quant += ft.quant / time.Duration(ft.forwards)
		if eng.inner != nil {
			intGEMM += eng.elapsed / time.Duration(ft.forwards)
		}
		for site, n := range eng.declines {
			rep.IntDeclines[k.Config+"/"+site] = n / ft.forwards
		}

		// tensor: the kernels alone on this key's shapes, per forward.
		weights := perForward(eng.shapes, ft.forwards)
		attn := perForward(ft.attn, ft.forwards)
		for s, c := range weights {
			gemmNs += c * floatGEMMNs(s)
			intNs += c * intGEMMNs(s)
			gemmFlops += c * s.flops()
			intFlops += c * s.flops()
			gemmBytes += c * s.bytes()
		}
		for s, c := range attn {
			gemmNs += c * floatGEMMNs(s)
			gemmFlops += c * s.flops()
			gemmBytes += c * s.bytes()
		}

		// ptq set-up: calibration of this key from scratch, as the
		// registry builds it (32 images, its default).
		cfg := config(k)
		base := vit.New(cfg, fp32Seed(cfg.Name))
		calib := data.CalibrationSet(cfg, 32, fp32Seed(cfg.Name))
		start = time.Now()
		ptq.Collect(base, calib, 0)
		rep.CollectS += time.Since(start).Seconds() / nk
		start = time.Now()
		if _, err := ptq.Quantize(base, ptq.NewQUQ(), ptq.CalibOptions{Bits: k.Bits, Regime: k.Regime, Images: calib}); err != nil {
			return nil, fmt.Errorf("quantize %s: %w", k, err)
		}
		rep.CalibrateS += time.Since(start).Seconds() / nk
	}
	rep.Forwards = forwards
	rep.ForwardP50MS = median(fwd)
	rep.Allocs = float64(allocs) / float64(forwards)
	rep.Bytes = float64(bytes) / float64(forwards)
	rep.QuantizerMS = ms(quant) / nk
	rep.IntGEMMMS = ms(intGEMM) / nk
	for _, op := range opNames {
		rep.OpMS[op] = ms(ops[op]) / nk
	}
	rep.GEMMNs = gemmNs / nk
	rep.IntGEMMNs = intNs / nk
	rep.GEMMBytes = gemmBytes / nk
	rep.GEMMGflops = gemmFlops / gemmNs
	rep.IntGEMMGflops = intFlops / intNs
	return rep, nil
}

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func perForward(counts map[gemmShape]int, forwards int) map[gemmShape]float64 {
	out := make(map[gemmShape]float64, len(counts))
	for s, c := range counts {
		out[s] = float64(c) / float64(forwards)
	}
	return out
}

// kernelRounds and kernelRoundTime size a kernel timing: the median of
// kernelRounds rounds of back-to-back calls, each round at least
// kernelRoundTime long.
const (
	kernelRounds    = 5
	kernelRoundTime = time.Millisecond
)

// timeKernel returns the median ns per call of fn.
func timeKernel(fn func()) float64 {
	fn() // warm the scratch pools
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(start) >= kernelRoundTime {
			break
		}
		reps *= 2
	}
	rounds := make([]float64, kernelRounds)
	for r := range rounds {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		rounds[r] = float64(time.Since(start).Nanoseconds()) / float64(reps)
	}
	sort.Float64s(rounds)
	return rounds[len(rounds)/2]
}

// floatGEMMNs times tensor.MatMulInto on one shape with seeded operands.
func floatGEMMNs(s gemmShape) float64 {
	src := rng.New(uint64(s.m*1_000_003 + s.k*1009 + s.n))
	a, b, dst := tensor.New(s.m, s.k), tensor.New(s.k, s.n), tensor.New(s.m, s.n)
	for _, t := range []*tensor.Tensor{a, b} {
		for i := range t.Data() {
			t.Data()[i] = src.Norm()
		}
	}
	return timeKernel(func() { tensor.MatMulInto(dst, a, b) })
}

// intGEMMNs times tensor.IntMatMulInto on one shape with operands in the
// int32 range pre-shifted QUB codes occupy (the narrow kernel).
func intGEMMNs(s gemmShape) float64 {
	src := rng.New(uint64(s.m*1_000_003 + s.k*1009 + s.n))
	a, b, dst := make([]int64, s.m*s.k), make([]int64, s.k*s.n), make([]int64, s.m*s.n)
	for _, v := range [][]int64{a, b} {
		for i := range v {
			v[i] = int64(src.Intn(2049)) - 1024
		}
	}
	return timeKernel(func() { tensor.IntMatMulInto(dst, a, b, s.m, s.k, s.n) })
}

// buildSeconds is serve.build_s: from each backend's BuildHook instant
// for a key to the /v1/quantize reply that waited for it.
func buildSeconds(tr *tracer, w workload, replies []time.Time) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var xs []float64
	for _, byKey := range tr.builds {
		for i, k := range w.keys {
			if t, ok := byKey[k.String()]; ok {
				xs = append(xs, replies[i].Sub(t).Seconds())
			}
		}
	}
	return mean(xs)
}
