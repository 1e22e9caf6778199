package accel

import (
	"fmt"

	"quq/internal/quant"
	"quq/internal/qub"
	"quq/internal/sfu"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// ModelRunner executes an entire plain ViT on the QUA datapath: the patch
// embedding and head GEMMs run as QUB integer matrix multiplies, every
// transformer block runs on a BlockRunner, and the final LayerNorm runs
// on the integer SFU. The embedding and head accumulators are decoded at
// the float boundary (acc·Δx·Δw + bias), as the serving path's integer
// engine does; token assembly adds the class token and position
// embeddings there before block 0 re-encodes.
//
// The whole-model chain covers the plain ViT, the architecture the
// paper's accelerator discussion walks through. BlockRunner also runs
// DeiT blocks (global attention over one sequence); Swin's windowed
// blocks are not simulated.
type ModelRunner struct {
	m   *vit.ViT
	arr ArrayConfig

	patchIn  *quant.Params // patch vectors entering the embedding GEMM
	rPatchIn qub.Registers
	pPatch   *PreparedOperand
	blocks   []*BlockRunner
	lastOut  *quant.Params // last block output, the final LayerNorm input
	finalLN  *sfu.LayerNormUnit
	rHeadIn  qub.Registers
	pHead    *PreparedOperand
}

// NewModelRunner prepares the integer pipeline for a quantized plain
// ViT. model must carry the fake-quantized weights; acts and weights are
// the calibration it was quantized with, keyed by vit.Site.Key (see
// NewBlockRunner). The build is all-or-nothing: a missing site — a
// Partial-regime or non-QUQ calibration — fails it.
func NewModelRunner(model vit.Model, acts, weights map[string]*quant.Params, arr ArrayConfig) (*ModelRunner, error) {
	m, ok := model.(*vit.ViT)
	if !ok || m.Config().Variant != vit.VariantViT {
		return nil, fmt.Errorf("accel: ModelRunner supports the plain ViT variant")
	}
	depth := len(m.Blocks)
	a := &siteParams{m: acts}
	r := &ModelRunner{m: m, arr: arr}
	r.patchIn = a.get(-1, "patch.in")
	r.lastOut = a.get(depth-1, "resid2.out")
	headIn := a.get(-1, "head.in")
	if err := a.err(); err != nil {
		return nil, err
	}
	var err error
	if r.pPatch, err = prepareWeight(weights, vit.Site{Block: -1, Name: "patch.w"}, m.Patch); err != nil {
		return nil, err
	}
	if r.pHead, err = prepareWeight(weights, vit.Site{Block: -1, Name: "head.w"}, m.Head); err != nil {
		return nil, err
	}
	for i, blk := range m.Blocks {
		br, err := NewBlockRunner(blk, i, acts, weights, arr)
		if err != nil {
			return nil, fmt.Errorf("accel: block %d: %w", i, err)
		}
		r.blocks = append(r.blocks, br)
	}
	if r.finalLN, err = sfu.NewLayerNormUnit(r.lastOut, headIn, m.Final.Gamma, m.Final.Beta); err != nil {
		return nil, fmt.Errorf("accel: final layernorm: %w", err)
	}
	if r.rPatchIn, err = qub.RegistersFor(r.patchIn); err != nil {
		return nil, err
	}
	if r.rHeadIn, err = qub.RegistersFor(headIn); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeGEMM multiplies x ([m, w.Rows] QUB with regs rx) by a resident
// weight and decodes the accumulator at the float boundary:
// acc·Δx·Δw + bias.
func (r *ModelRunner) decodeGEMM(x []qub.Word, rx qub.Registers, w *PreparedOperand, m int, bias []float64, stats *RunStats) (*tensor.Tensor, error) {
	res, err := r.arr.GEMMPrepared(x, rx, w, m, w.Rows, nil)
	if err != nil {
		return nil, err
	}
	stats.add(res.Stats)
	//quq:float-ok decode boundary: one scale of the exact integer accumulator (an exact power-of-two product of the operand Δs)
	unit := rx.BaseDelta * w.Delta
	out := tensor.New(m, w.Cols)
	od := out.Data()
	for i, acc := range res.Acc {
		//quq:float-ok decode boundary: the embedding and head outputs leave the integer datapath here, plus the float bias
		od[i] = float64(acc)*unit + bias[i%w.Cols]
	}
	return out, nil
}

// Run classifies one image entirely on the integer datapath and returns
// the logits plus the cycle accounting.
func (r *ModelRunner) Run(img *tensor.Tensor) (*tensor.Tensor, *RunStats, error) {
	cfg := r.m.Config()
	stats := &RunStats{}

	// Patch embedding GEMM.
	patches := vit.Patchify(img, cfg.PatchSize)
	pe := qub.EncodeTensor(r.patchIn, patches.Data())
	emb, err := r.decodeGEMM(pe, r.rPatchIn, r.pPatch, patches.Dim(0), r.m.Patch.B, stats)
	if err != nil {
		return nil, nil, err
	}

	// Token assembly (cls, registers, position embeddings) at the token
	// buffer; block 0 encodes the result with its input quantizer.
	nreg := 0
	if r.m.Reg != nil {
		nreg = r.m.Reg.Dim(0)
	}
	tokens := tensor.New(patches.Dim(0)+1+nreg, cfg.Dim)
	copy(tokens.Row(0), r.m.Cls)
	for i := 0; i < nreg; i++ {
		copy(tokens.Row(1+i), r.m.Reg.Row(i))
	}
	for row := 0; row < patches.Dim(0); row++ {
		copy(tokens.Row(1+nreg+row), emb.Row(row))
	}
	tokens.AddInPlace(r.m.Pos)

	x := tokens
	for bi, br := range r.blocks {
		out, bstats, err := br.Run(x)
		if err != nil {
			return nil, nil, fmt.Errorf("accel: block %d: %w", bi, err)
		}
		stats.GEMMCycles += bstats.GEMMCycles
		stats.MACs += bstats.MACs
		x = out
	}

	// Final LayerNorm (SFU) on the class token, then the head GEMM.
	headRow := r.finalLN.Row(qub.EncodeTensor(r.lastOut, x.Row(0)))
	logits, err := r.decodeGEMM(headRow, r.rHeadIn, r.pHead, 1, r.m.Head.B, stats)
	if err != nil {
		return nil, nil, err
	}
	return logits.Reshape(cfg.Classes), stats, nil
}
