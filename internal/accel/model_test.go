package accel_test

import (
	"testing"

	"quq/internal/accel"
	"quq/internal/baselines"
	"quq/internal/data"
	"quq/internal/nn"
	"quq/internal/ptq"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// quantizedNano returns a trained-head ViT-Nano and its PTQ quantization
// (QUQ method, Full regime) over calibN calibration images — the model
// the simulator executes.
func quantizedNano(t testing.TB, bits, calibN int) (vit.Model, *ptq.QuantizedModel) {
	t.Helper()
	cfg := vit.ViTNano
	m, _ := nn.PretrainedZoo(cfg, 31, 80)
	qm, err := ptq.Quantize(m, ptq.NewQUQ(), ptq.CalibOptions{
		Bits: bits, Regime: ptq.Full, Images: data.CalibrationSet(cfg, calibN, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, qm
}

func newRunner(t testing.TB, qm *ptq.QuantizedModel, arr accel.ArrayConfig) *accel.ModelRunner {
	t.Helper()
	r, err := accel.NewModelRunner(qm.Model, qm.ActParams(), qm.WeightParams, arr)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestModelRunnerClassifiesLikeQuantizedModel is the whole-system
// integration check: a trained-head ViT-Nano executed entirely on the
// integer QUA datapath must stay close to FP32 top-1 at 8 bits and
// classify like the fake-quantization executor of the same quantized
// model.
func TestModelRunnerClassifiesLikeQuantizedModel(t *testing.T) {
	cfg := vit.ViTNano
	m, qm := quantizedNano(t, 8, 8)
	test := data.PatternSamples(cfg.Channels, cfg.ImageSize, 60, 606)
	images := make([]*tensor.Tensor, len(test))
	labels := make([]int, len(test))
	for i, s := range test {
		images[i] = s.Image
		labels[i] = s.Label
	}
	fp32 := ptq.Accuracy(ptq.ModelClassifier{M: m}, images, labels)
	if fp32 < 0.7 {
		t.Skipf("reference model too weak (%v) for an accuracy comparison", fp32)
	}

	runner := newRunner(t, qm, accel.DefaultArray(8))
	hit, agree := 0, 0
	var totalMACs int64
	for i, img := range images {
		logits, stats, err := runner.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		if logits.Len() != cfg.Classes {
			t.Fatalf("got %d logits", logits.Len())
		}
		if logits.ArgMax() == labels[i] {
			hit++
		}
		if logits.ArgMax() == qm.Forward(img).ArgMax() {
			agree++
		}
		totalMACs = stats.MACs
	}
	acc := float64(hit) / float64(len(images))
	t.Logf("8-bit integer top-1 %.3f (FP32 %.3f), argmax agreement with the fake-quant executor %d/%d", acc, fp32, agree, len(images))
	if acc < fp32-0.10 {
		t.Fatalf("integer datapath top-1 %v too far below FP32 %v", acc, fp32)
	}
	if a := float64(agree) / float64(len(images)); a < 0.9 {
		t.Fatalf("integer datapath argmax agrees with the fake-quant executor on %d/%d images", agree, len(images))
	}
	if totalMACs <= 0 {
		t.Fatal("no MACs accounted")
	}
}

func TestModelRunnerRejectsUnsupported(t *testing.T) {
	if _, err := accel.NewModelRunner(vit.New(vit.SwinTiny, 1), nil, nil, accel.DefaultArray(8)); err == nil {
		t.Fatal("accepted a Swin model")
	}
	if _, err := accel.NewModelRunner(vit.New(vit.ViTNano, 1), nil, nil, accel.DefaultArray(8)); err == nil {
		t.Fatal("accepted empty calibration")
	}
}

// TestModelRunnerRejectsPartialOrNonQUQ pins the all-or-nothing build:
// the simulator needs a QUQ parameter set at every site, so a Partial-
// regime model (no residual/LayerNorm/softmax-input quantizers) and a
// model quantized by another method both fail instead of running a
// partly calibrated datapath.
func TestModelRunnerRejectsPartialOrNonQUQ(t *testing.T) {
	cfg := vit.ViTNano
	m := vit.New(cfg, 1)
	calib := data.CalibrationSet(cfg, 1, 1)
	for _, tc := range []struct {
		name   string
		method ptq.Method
		regime ptq.Regime
	}{
		{"partial QUQ", ptq.NewQUQ(), ptq.Partial},
		{"full BaseQ", baselines.BaseQ{}, ptq.Full},
	} {
		qm, err := ptq.Quantize(m, tc.method, ptq.CalibOptions{Bits: 8, Regime: tc.regime, Images: calib})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := accel.NewModelRunner(qm.Model, qm.ActParams(), qm.WeightParams, accel.DefaultArray(8)); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

func TestModelRunnerCycleAccountingScales(t *testing.T) {
	_, qm := quantizedNano(t, 6, 4)
	img := data.Images(vit.ViTNano, 1, 8)[0]

	_, sBig, err := newRunner(t, qm, accel.ArrayConfig{N: 16, Bits: 6}).Run(img)
	if err != nil {
		t.Fatal(err)
	}
	_, sSmall, err := newRunner(t, qm, accel.ArrayConfig{N: 4, Bits: 6}).Run(img)
	if err != nil {
		t.Fatal(err)
	}
	if sBig.MACs != sSmall.MACs {
		t.Fatalf("MACs depend on array size: %d vs %d", sBig.MACs, sSmall.MACs)
	}
	if sSmall.GEMMCycles <= sBig.GEMMCycles {
		t.Fatalf("4x4 array not slower than 16x16: %d vs %d", sSmall.GEMMCycles, sBig.GEMMCycles)
	}
}
