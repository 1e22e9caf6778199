package main

import (
	"bytes"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/serve/metrics"
	"quq/internal/vit"
)

func TestInputsReplayFromSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := newInputs(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newInputs(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.plan, b.plan) || !reflect.DeepEqual(a.wire, b.wire) {
			t.Errorf("%s: seed 7 gave two different input sets", w.name)
		}
		for ki := range a.images {
			for i := range a.images[ki] {
				if !sameBits(a.images[ki][i].Data(), b.images[ki][i].Data()) {
					t.Errorf("%s: image %d/%d differs between replays", w.name, ki, i)
				}
			}
		}
		c, err := newInputs(w, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.plan, c.plan) || reflect.DeepEqual(a.wire, c.wire) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
	}
}

func TestOpenLoopScheduleIsPoissonAtRate(t *testing.T) {
	w, err := findWorkload("nano-open")
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInputs(w, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(in.plan), int(w.rate*20); got != want {
		t.Fatalf("%d arrivals over 20s, want %d", got, want)
	}
	var gaps []float64
	for i := 1; i < len(in.plan); i++ {
		d := in.plan[i].due - in.plan[i-1].due
		if d < 0 {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
		gaps = append(gaps, d.Seconds())
	}
	// Exponential gaps: the mean is 1/rate and the standard deviation
	// equals the mean.
	m := mean(gaps)
	var v float64
	for _, g := range gaps {
		v += (g - m) * (g - m)
	}
	sd := math.Sqrt(v / float64(len(gaps)))
	if math.Abs(m*w.rate-1) > 0.05 || math.Abs(sd/m-1) > 0.1 {
		t.Errorf("gap mean %.4gs sd %.4gs, want both near %.4gs", m, sd, 1/w.rate)
	}
}

func TestClosedLoopRotatesKeys(t *testing.T) {
	w, err := findWorkload("zoo-batch")
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInputs(w, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 30; i++ {
		if in.plan[i].key != (in.plan[i-1].key+1)%len(w.keys) {
			t.Fatalf("request %d uses key %d after key %d", i, in.plan[i].key, in.plan[i-1].key)
		}
		if len(in.plan[i].imgs) != w.images {
			t.Fatalf("request %d has %d images, want %d", i, len(in.plan[i].imgs), w.images)
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {1, 100, 0}, {0.001, 1, 99},
	} {
		got := nearestRank(xs, tc.q)
		if got.Value != tc.want || got.N != 100 || got.Beyond != tc.beyond {
			t.Errorf("q=%v: got %+v, want value %v n 100 beyond %d", tc.q, got, tc.want, tc.beyond)
		}
	}
	if xs[0] != 100 {
		t.Error("nearestRank sorted its input in place")
	}
	if got := nearestRank([]float64{3, 1, 2}, 0.5); got.Value != 2 || got.N != 3 || got.Beyond != 1 {
		t.Errorf("median of three: got %+v", got)
	}
	if got := nearestRank(nil, 0.5); got != (quantile{}) {
		t.Errorf("empty input: got %+v", got)
	}
}

func TestMetricDeltas(t *testing.T) {
	reg := metrics.NewRegistry()
	shed := reg.NewCounter("quq_serve_shed_total", "shed")
	misses := reg.NewCounter("quq_serve_model_cache_misses_total", "misses")
	images := reg.NewCounter("quq_serve_images_total", "images")
	batch := reg.NewHistogram("quq_serve_batch_size", "batch", metrics.SizeBuckets())
	page := func() *metrics.Exposition {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		e, err := metrics.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	misses.Add(3) // set-up calibrations happen before the phase
	images.Add(5)
	batch.Observe(5)
	before := page()
	shed.Add(2)
	images.Add(12)
	batch.Observe(8)
	batch.Observe(4)
	d := metricDeltas(before, page())
	want := map[string]float64{
		"serve.shed": 2, "serve.cache_misses": 0, "serve.images": 12, "serve.batches": 2,
		"serve.batch_size_mean": 6, "serve.rejected": 0, "shard.retries": 0, "shard.failovers": 0,
	}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("deltas %v, want %v", d, want)
	}
}

func TestPeekRIDLeavesBodyIntact(t *testing.T) {
	for _, tc := range []struct {
		body string
		rid  int
	}{
		{`{"rid":1000042,"model":"ViT-Nano","images":[[0.5]]}`, 1000042},
		{`{"model":"ViT-Nano"}`, -1},
		{`{"rid":x,"model":"ViT-Nano"}`, -1},
		{``, -1},
	} {
		r := httptest.NewRequest("POST", "/v1/classify", strings.NewReader(tc.body))
		if got := peekRID(r); got != tc.rid {
			t.Errorf("%q: rid %d, want %d", tc.body, got, tc.rid)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r.Body); err != nil {
			t.Fatal(err)
		}
		if buf.String() != tc.body {
			t.Errorf("body after peek %q, want %q", buf.String(), tc.body)
		}
	}
}

func TestJoinDispatch(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{rid: 2, start: at(5), end: at(30)}, // overlaps rid 1, started later
		{rid: 1, start: at(0), end: at(20)},
		{rid: 3, start: at(40), end: at(50)},
		{rid: -1, start: at(41), end: at(42)}, // a probe: owes no forwards
	}
	hooks := []time.Time{at(12), at(8), at(10), at(45)}
	imgs := map[int]int{1: 2, 2: 1, 3: 1}
	got := joinDispatch(spans, hooks, func(rid int) int { return imgs[rid] })
	want := []dispatch{
		{rid: 1, pre: 8 * time.Millisecond, post: 12 * time.Millisecond},
		{rid: 2, pre: 7 * time.Millisecond, post: 18 * time.Millisecond},
		{rid: 3, pre: 5 * time.Millisecond, post: 5 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("joined %+v, want %+v", got, want)
	}
}

// TestTracedForwardMatchesForward holds the traced forward to the
// program's own: the same logits bit for bit, with every tap site
// attributed to an op, on a plain ViT and on Swin.
func TestTracedForwardMatchesForward(t *testing.T) {
	for _, cfg := range []vit.Config{vit.ViTNano, vit.SwinTiny} {
		base := vit.New(cfg, 1)
		qm, err := ptq.Quantize(base, ptq.NewQUQ(), ptq.CalibOptions{
			Bits: 6, Regime: ptq.Full, Images: data.CalibrationSet(cfg, 2, 1), MaxSamplesPerSite: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		img := data.Images(cfg, 1, 9)[0]
		for _, intPath := range []bool{false, true} {
			if err := qm.SetIntPath(intPath); err != nil {
				t.Fatal(err)
			}
			eng := &timedEngine{shapes: map[gemmShape]int{}, declines: map[string]int{}}
			if intPath {
				ie, err := ptq.NewIntEngine(qm)
				if err != nil {
					t.Fatal(err)
				}
				eng.inner = ie
			}
			ft := &forwardTrace{op: map[string]time.Duration{}, attn: map[gemmShape]int{}}
			out, err := tracedForward(qm, img, eng, ft)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			if !sameBits(out.Data(), qm.Forward(img).Data()) {
				t.Errorf("%s int=%v: traced logits differ from Forward", cfg.Name, intPath)
			}
			t.Logf("%s int=%v: engine declines %v", cfg.Name, intPath, eng.declines)
			if len(eng.shapes) == 0 || len(ft.attn) == 0 || ft.quant <= 0 {
				t.Errorf("%s: traced forward recorded no GEMM shapes or quantizer time", cfg.Name)
			}
		}
	}
}
