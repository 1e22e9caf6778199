// Benchmarks regenerating each table and figure of the paper's
// evaluation at benchmark-friendly scale, plus micro-benchmarks of the
// quantization primitives. Run with:
//
//	go test -bench=. -benchmem
//
// The full-scale artifacts come from `go run ./cmd/quq all`; these
// benches exist to time the pipelines and catch performance regressions.
package quq_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"quq"
	"quq/internal/accel"
	"quq/internal/baselines"
	"quq/internal/data"
	"quq/internal/dist"
	"quq/internal/experiments"
	"quq/internal/hweval"
	"quq/internal/memsim"
	"quq/internal/ptq"
	"quq/internal/quant"
	"quq/internal/qub"
	"quq/internal/rng"
	"quq/internal/serve"
	"quq/internal/sfu"
	"quq/internal/shard"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// BenchmarkTable1 regenerates the MSE comparison (reduced sample count).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(1<<13, 42)
	}
}

// benchZoo prepares a one-model zoo at benchmark scale, once.
var benchZooCache []*experiments.ZooModel

func benchZoo(b *testing.B) []*experiments.ZooModel {
	b.Helper()
	if benchZooCache == nil {
		benchZooCache = experiments.BuildZoo(experiments.ZooOptions{
			Configs:     []vit.Config{vit.ViTNano},
			TrainImages: 60,
			EvalImages:  20,
			CalibImages: 4,
			Seed:        7,
		})
	}
	return benchZooCache
}

// BenchmarkTable2 regenerates the partial-quantization comparison on a
// reduced zoo.
func BenchmarkTable2(b *testing.B) {
	zoo := benchZoo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(zoo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the full-quantization comparison on a
// reduced zoo.
func BenchmarkTable3(b *testing.B) {
	zoo := benchZoo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(zoo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates the accelerator area/power table.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table4()
	}
}

// BenchmarkFig2 regenerates the peak-memory sweep.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig2(6, nil)
	}
}

// BenchmarkFig3 regenerates the distribution/quantization-point panels.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3(1<<12, 4, 42)
	}
}

// BenchmarkFig7 regenerates the attention-retention experiment at
// reduced scale (ViT-Nano-sized model, few images).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(experiments.Fig7Options{Config: vit.ViTNano, Images: 2, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation runs the PRA design-choice sweep.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Ablations(1<<12, 6, 42)
	}
}

// --- Micro-benchmarks of the primitives ---

func benchSamples(n int) []float64 {
	return dist.Sample(dist.PreAddition, n, rng.New(99))
}

// BenchmarkPRA times Algorithm 2 on a 64k-element tensor.
func BenchmarkPRA(b *testing.B) {
	xs := benchSamples(1 << 16)
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.PRA(xs, 6, quant.DefaultPRAOptions())
	}
}

// BenchmarkCalibrateRefined times the full calibration pipeline.
func BenchmarkCalibrateRefined(b *testing.B) {
	xs := benchSamples(1 << 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quq.Calibrate(xs, 6)
	}
}

// BenchmarkQuantizeSlice times fake quantization throughput.
func BenchmarkQuantizeSlice(b *testing.B) {
	xs := benchSamples(1 << 16)
	p := quant.PRA(xs, 6, quant.DefaultPRAOptions())
	out := make([]float64, len(xs))
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.QuantizeSlice(out, xs)
	}
}

// BenchmarkQUBEncodeDecode times the codec round trip.
func BenchmarkQUBEncodeDecode(b *testing.B) {
	xs := benchSamples(1 << 14)
	p := quant.PRA(xs, 8, quant.DefaultPRAOptions())
	regs, err := qub.RegistersFor(p)
	if err != nil {
		b.Fatal(err)
	}
	words := qub.EncodeTensor(p, xs)
	b.SetBytes(int64(len(xs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qub.DecodeTensor(words, regs)
	}
}

// BenchmarkQUBDot times the Eq. (5) integer dot product.
func BenchmarkQUBDot(b *testing.B) {
	xs := benchSamples(1 << 12)
	ws := dist.Sample(dist.QueryWeight, 1<<12, rng.New(5))
	px := quant.PRA(xs, 6, quant.DefaultPRAOptions())
	pw := quant.PRA(ws, 6, quant.DefaultPRAOptions())
	rx, _ := qub.RegistersFor(px)
	rw, _ := qub.RegistersFor(pw)
	ex := qub.EncodeTensor(px, xs)
	ew := qub.EncodeTensor(pw, ws)
	b.SetBytes(int64(len(xs) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qub.Dot(ex, ew, rx, rw)
	}
}

// BenchmarkAccelGEMM times the bit-exact accelerator GEMM (64×96×64).
func BenchmarkAccelGEMM(b *testing.B) {
	xs := benchSamples(64 * 96)
	ws := dist.Sample(dist.QueryWeight, 96*64, rng.New(6))
	px := quant.PRA(xs, 6, quant.DefaultPRAOptions())
	pw := quant.PRA(ws, 6, quant.DefaultPRAOptions())
	ql, err := accel.NewQuantizedLinear(px, pw)
	if err != nil {
		b.Fatal(err)
	}
	ex := qub.EncodeTensor(px, xs)
	ew := qub.EncodeTensor(pw, ws)
	cfg := accel.DefaultArray(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.GEMM(ex, ql.XRegs, ew, ql.WRegs, 64, 96, 64, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockRunnerIntegerPath times one transformer block of a
// quantized ViT-Nano (QUQ, Full, 8-bit) executed entirely on the integer
// QUA datapath (QUB GEMMs + integer SFUs).
func BenchmarkBlockRunnerIntegerPath(b *testing.B) {
	cfg := vit.ViTNano
	m := vit.New(cfg, 12)
	qm, err := ptq.Quantize(m, ptq.NewQUQ(), ptq.CalibOptions{Bits: 8, Regime: ptq.Full, Images: data.CalibrationSet(cfg, 2, 12)})
	if err != nil {
		b.Fatal(err)
	}
	var x *tensor.Tensor
	qm.ForwardOpts(data.Images(cfg, 1, 13)[0], vit.ForwardOpts{Tap: func(s vit.Site, t *tensor.Tensor) *tensor.Tensor {
		if s.Block == -1 && s.Name == "embed.out" {
			x = t.Clone()
		}
		return t
	}})
	blk := qm.Model.(*vit.ViT).Blocks[0]
	runner, err := accel.NewBlockRunner(blk, 0, qm.ActParams(), qm.WeightParams, accel.DefaultArray(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runner.Run(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSFUSoftmax times the integer softmax kernel on a 64-wide row.
func BenchmarkSFUSoftmax(b *testing.B) {
	src := rng.New(13)
	row := make([]int64, 64)
	for i := range row {
		row[i] = sfu.ToFixed(src.Gauss(0, 4))
	}
	out := make([]int64, len(row))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sfu.Softmax(out, row)
	}
}

// BenchmarkForwardViTNano times one FP32 inference.
func BenchmarkForwardViTNano(b *testing.B) {
	m := vit.New(vit.ViTNano, 1)
	img := data.Images(vit.ViTNano, 1, 2)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(img, vit.ForwardOpts{})
	}
}

// BenchmarkForwardQuantized times one fully quantized inference.
func BenchmarkForwardQuantized(b *testing.B) {
	m := vit.New(vit.ViTNano, 1)
	calib := data.CalibrationSet(vit.ViTNano, 4, 3)
	qm, err := ptq.Quantize(m, ptq.NewQUQ(), ptq.CalibOptions{Bits: 6, Regime: ptq.Full, Images: calib})
	if err != nil {
		b.Fatal(err)
	}
	img := data.Images(vit.ViTNano, 1, 2)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qm.Forward(img)
	}
}

// BenchmarkBaselineCalibration times the comparison methods' calibration
// on one tensor.
func BenchmarkBaselineCalibration(b *testing.B) {
	m := vit.New(vit.ViTNano, 1)
	calib := data.CalibrationSet(vit.ViTNano, 4, 3)
	stats := ptq.Collect(m, calib, 8192)
	var st *ptq.SiteStats
	for _, s := range stats {
		if s.Site.Name == "resid1.out" {
			st = s
			break
		}
	}
	methods := []ptq.Method{baselines.BaseQ{}, baselines.PTQ4ViT{}, baselines.APQViT{}, baselines.FQViT{}, baselines.BiScaled{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		methods[i%len(methods)].CalibrateActivation(st, 6)
	}
}

// BenchmarkMemsim times one peak-memory walk.
func BenchmarkMemsim(b *testing.B) {
	blk := memsim.PaperBlocks(8)[2]
	for i := 0; i < b.N; i++ {
		memsim.Peak(blk, memsim.FullQuant(6))
	}
}

// BenchmarkHweval times one accelerator evaluation.
func BenchmarkHweval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hweval.Evaluate(hweval.DefaultConfig(hweval.QUADesign, 6, 64))
	}
}

// BenchmarkServeThroughput compares quq-serve end-to-end throughput for
// 16 images sent as 16 sequential single-image requests ("unbatched")
// versus one 16-image request coalesced by the micro-batcher
// ("batched"). On this single-core reproduction the batched path wins by
// amortizing HTTP round trips, JSON decoding and the linger window — not
// by parallelism. Results land in artifacts/BENCH_serve.json.
func BenchmarkServeThroughput(b *testing.B) {
	const images = 16
	s := serve.New(serve.Config{
		Registry: serve.RegistryOptions{Seed: 7, CalibImages: 2},
		Batcher:  serve.BatcherOptions{MaxBatch: images, Linger: 2 * time.Millisecond, QueueCap: 256},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(b *testing.B, body []byte) {
		b.Helper()
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bytes.NewBuffer(nil).ReadFrom(resp.Body); err != nil {
			b.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}

	// Warm the registry so neither mode pays the calibration.
	post(b, mustMarshalBench(b, map[string]any{
		"model": "ViT-Nano", "method": "QUQ", "bits": 6,
		"images": benchFlatImages(1),
	}))

	flat := benchFlatImages(images)
	singles := make([][]byte, images)
	for i := range singles {
		singles[i] = mustMarshalBench(b, map[string]any{
			"model": "ViT-Nano", "method": "QUQ", "bits": 6,
			"images": flat[i : i+1],
		})
	}
	batched := mustMarshalBench(b, map[string]any{
		"model": "ViT-Nano", "method": "QUQ", "bits": 6,
		"images": flat,
	})

	var unbatchedIPS, batchedIPS float64
	b.Run("unbatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, body := range singles {
				post(b, body)
			}
		}
		unbatchedIPS = float64(b.N*images) / b.Elapsed().Seconds()
		b.ReportMetric(unbatchedIPS, "img/s")
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(b, batched)
		}
		batchedIPS = float64(b.N*images) / b.Elapsed().Seconds()
		b.ReportMetric(batchedIPS, "img/s")
	})

	if unbatchedIPS == 0 || batchedIPS == 0 {
		return // sub-benchmark filtered out; nothing coherent to record
	}
	artifact := struct {
		Images             int     `json:"images"`
		UnbatchedImgPerSec float64 `json:"unbatched_img_per_sec"`
		BatchedImgPerSec   float64 `json:"batched_img_per_sec"`
		Speedup            float64 `json:"speedup"`
	}{images, unbatchedIPS, batchedIPS, batchedIPS / unbatchedIPS}
	buf, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll("artifacts", 0o755); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("artifacts", "BENCH_serve.json"), append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("serve throughput: unbatched %.1f img/s, batched %.1f img/s (%.2fx)",
		unbatchedIPS, batchedIPS, artifact.Speedup)
}

func mustMarshalBench(b *testing.B, v any) []byte {
	b.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return buf
}

// benchFlatImages renders n deterministic ViT-Nano images as the flat
// JSON wire format.
func benchFlatImages(n int) [][]float64 {
	imgs := data.Images(vit.ViTNano, n, 4242)
	flat := make([][]float64, n)
	for i, img := range imgs {
		flat[i] = img.Data()
	}
	return flat
}

// BenchmarkMatMul times the tensor GEMM kernel (96×384×96).
func BenchmarkMatMul(b *testing.B) {
	src := rng.New(1)
	x := tensor.New(96, 384)
	w := tensor.New(384, 96)
	for i := range x.Data() {
		x.Data()[i] = src.Norm()
	}
	for i := range w.Data() {
		w.Data()[i] = src.Norm()
	}
	b.SetBytes(int64(96 * 384 * 96 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, w)
	}
}

// BenchmarkShardThroughput measures the quq-shard proxy tax: the same
// two-key workload (one image per request, keys alternating) sent
// directly to the owning quq-serve backend versus through the
// consistent-hash front-end. The front-end adds one loopback hop plus
// ring lookup and canonicalization; the ratio quantifies that overhead.
// Results land in artifacts/BENCH_shard.json.
func BenchmarkShardThroughput(b *testing.B) {
	const backendsN = 3
	backends := make([]*httptest.Server, backendsN)
	addrs := make([]string, backendsN)
	for i := range backends {
		s := serve.New(serve.Config{
			Registry: serve.RegistryOptions{Seed: 7, CalibImages: 2},
			Batcher:  serve.BatcherOptions{MaxBatch: 8, Linger: time.Millisecond, QueueCap: 256},
		})
		backends[i] = httptest.NewServer(s.Handler())
		defer backends[i].Close()
		addrs[i] = backends[i].URL
	}
	front := shard.New(shard.Options{Backends: addrs, ProbeInterval: -1, Retries: -1})
	defer front.Close()
	fs := httptest.NewServer(front.Handler())
	defer fs.Close()

	post := func(b *testing.B, url string, body []byte) {
		b.Helper()
		resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bytes.NewBuffer(nil).ReadFrom(resp.Body); err != nil {
			b.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}

	img := benchFlatImages(1)
	sels := []map[string]any{
		{"model": "ViT-Nano", "method": "QUQ", "bits": 6, "images": img},
		{"model": "ViT-Nano", "method": "BaseQ", "bits": 6, "images": img},
	}
	bodies := make([][]byte, len(sels))
	owners := make([]string, len(sels))
	for i, sel := range sels {
		bodies[i] = mustMarshalBench(b, sel)
		key, err := serve.KeyFromWire(sel["model"].(string), sel["method"].(string), sel["bits"].(int), "")
		if err != nil {
			b.Fatal(err)
		}
		owner, ok := front.Ring().Owner(key.String())
		if !ok {
			b.Fatal("ring has no backends")
		}
		owners[i] = owner.Addr()
		// Warm through the front so each key calibrates on its owner.
		post(b, fs.URL, bodies[i])
	}

	var directIPS, shardedIPS float64
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % len(bodies)
			post(b, owners[k], bodies[k])
		}
		directIPS = float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(directIPS, "img/s")
	})
	b.Run("sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := i % len(bodies)
			post(b, fs.URL, bodies[k])
		}
		shardedIPS = float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(shardedIPS, "img/s")
	})

	if directIPS == 0 || shardedIPS == 0 {
		return // sub-benchmark filtered out; nothing coherent to record
	}
	artifact := struct {
		Backends        int     `json:"backends"`
		Keys            int     `json:"keys"`
		DirectImgPerSec float64 `json:"direct_img_per_sec"`
		ShardImgPerSec  float64 `json:"sharded_img_per_sec"`
		ProxyOverhead   float64 `json:"proxy_overhead"`
	}{backendsN, len(sels), directIPS, shardedIPS, directIPS / shardedIPS}
	buf, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll("artifacts", 0o755); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("artifacts", "BENCH_shard.json"), append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
