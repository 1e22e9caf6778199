package accel_test

import (
	"math"
	"testing"

	"quq/internal/accel"
	"quq/internal/data"
	"quq/internal/ptq"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// blockIO runs the fake-quant executor of qm on img and returns, per
// block, its (already quantized) input and its output tapped at
// resid2.out.
func blockIO(qm *ptq.QuantizedModel, img *tensor.Tensor) (in, out []*tensor.Tensor) {
	qm.ForwardOpts(img, vit.ForwardOpts{Tap: func(s vit.Site, x *tensor.Tensor) *tensor.Tensor {
		switch {
		case s.Block == -1 && s.Name == "embed.out":
			in = append(in, x.Clone())
		case s.Name == "resid2.out":
			out = append(out, x.Clone())
			in = append(in, x.Clone())
		}
		return x
	}})
	return in, out
}

func newBlockRunners(t *testing.T, qm *ptq.QuantizedModel, arr accel.ArrayConfig) []*accel.BlockRunner {
	t.Helper()
	var rs []*accel.BlockRunner
	for i, blk := range qm.Model.(*vit.ViT).Blocks {
		r, err := accel.NewBlockRunner(blk, i, qm.ActParams(), qm.WeightParams, arr)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		rs = append(rs, r)
	}
	return rs
}

// TestBlockRunnerMatchesFakeQuant is the capstone integration test: every
// transformer block of a quantized ViT-Nano executed on the integer QUA
// datapath (QUB GEMMs, integer SFUs, integer residual adders) must track
// the same quantized model's fake-quantization executor closely, and
// both must track the FP32 block.
func TestBlockRunnerMatchesFakeQuant(t *testing.T) {
	m, qm := quantizedNano(t, 8, 8)
	runners := newBlockRunners(t, qm, accel.DefaultArray(8))
	fp32 := m.(*vit.ViT).Blocks
	for _, img := range data.Images(vit.ViTNano, 3, 17) {
		ins, refs := blockIO(qm, img)
		for i, r := range runners {
			got, stats, err := r.Run(ins[i])
			if err != nil {
				t.Fatal(err)
			}
			if stats.GEMMCycles <= 0 || stats.MACs <= 0 {
				t.Fatal("no cycle accounting")
			}
			ref := refs[i]
			cos := tensor.CosineSimilarity(got, ref)
			if cos < 0.98 {
				t.Fatalf("block %d: integer block diverged from fake-quant reference: cosine %v", i, cos)
			}
			// Error bounded relative to the signal (SFU approximations plus
			// requantization rounding accumulate across the block).
			rel := math.Sqrt(tensor.MSE(got, ref)) / (ref.Std() + 1e-12)
			if rel > 0.15 {
				t.Fatalf("block %d: relative error %v too high", i, rel)
			}

			// And the quantized paths must track the FP32 block.
			fp := fp32[i].Forward(ins[i], 1, i, vit.ForwardOpts{})
			if c := tensor.CosineSimilarity(got, fp); c < 0.97 {
				t.Fatalf("block %d: integer block diverged from FP32: cosine %v", i, c)
			}
		}
	}
}

func TestBlockRunnerCycleAccounting(t *testing.T) {
	_, qm := quantizedNano(t, 6, 4)
	ins, _ := blockIO(qm, data.Images(vit.ViTNano, 1, 4)[0])
	r16 := newBlockRunners(t, qm, accel.ArrayConfig{N: 16, Bits: 6})[0]
	r4 := newBlockRunners(t, qm, accel.ArrayConfig{N: 4, Bits: 6})[0]
	_, s16, err := r16.Run(ins[0])
	if err != nil {
		t.Fatal(err)
	}
	_, s4, err := r4.Run(ins[0])
	if err != nil {
		t.Fatal(err)
	}
	if s16.MACs != s4.MACs {
		t.Fatalf("MAC count depends on array size: %d vs %d", s16.MACs, s4.MACs)
	}
	if s4.GEMMCycles <= s16.GEMMCycles {
		t.Fatalf("smaller array not slower: %d vs %d cycles", s4.GEMMCycles, s16.GEMMCycles)
	}
}
