package accel

import (
	"fmt"
	"math"

	"quq/internal/quant"
	"quq/internal/qub"
	"quq/internal/sfu"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// BlockRunner executes one transformer block entirely on the QUA
// datapath: every GEMM runs as a QUB integer matrix multiply with
// integer requantization, and LayerNorm/Softmax/GELU/residual-add run on
// the integer SFUs. No floating-point value enters the data path between
// the input encoding and the output decoding.
//
// The runner owns no calibration: it executes the quantizers of a
// Full-regime, QUQ-method PTQ model (ptq.QuantizedModel's activation
// params and WeightParams), so the simulator runs exactly the quantized
// model that the float and integer serving paths run.
type BlockRunner struct {
	blk *vit.Block
	arr ArrayConfig

	// in encodes the block input; the rest are the output quantizers of
	// the block's requantizing GEMMs.
	in, q, k, v, softmaxIn, projIn *quant.Params
	projOut, geluIn, fc2Out        *quant.Params

	ln1, ln2   *sfu.LayerNormUnit
	softmax    *sfu.Unit
	gelu       *sfu.Unit
	add1, add2 *sfu.AddUnit

	// Resident prepared weight operands, recovered once at construction
	// from the model's fake-quantized weights and reused by every Run.
	// The QKV weight is split into its three column groups so each can
	// feed its own quantization unit.
	pQ, pK, pV *PreparedOperand
	pProj      *PreparedOperand
	pFC1, pFC2 *PreparedOperand

	// Activation register files, resolved once at construction so Run
	// never has to handle a RegistersFor failure mid-execution.
	rLN1, rLN2           qub.Registers
	rQ, rK, rV           qub.Registers
	rSoftmaxOut, rProjIn qub.Registers
	rGeluOut             qub.Registers
}

// RunStats aggregates the cycle accounting of one block or whole-model
// execution.
type RunStats struct {
	GEMMCycles int64
	MACs       int64
}

func (s *RunStats) add(g GEMMStats) {
	s.GEMMCycles += g.Cycles
	s.MACs += g.MACs
}

// siteParams resolves site keys against a calibration map, remembering
// every key it could not find so a constructor can report them together.
type siteParams struct {
	m       map[string]*quant.Params
	missing []string
}

func (s *siteParams) get(block int, name string) *quant.Params {
	key := vit.Site{Block: block, Name: name}.Key()
	p := s.m[key]
	if p == nil {
		s.missing = append(s.missing, key)
	}
	return p
}

func (s *siteParams) err() error {
	if len(s.missing) == 0 {
		return nil
	}
	return fmt.Errorf("accel: no calibrated params for %v (the simulator needs a Full-regime QUQ model)", s.missing)
}

// blockInput names the site whose quantizer encodes block i's input in
// the plain ViT chain: the token embedding for block 0, the previous
// block's output otherwise.
func blockInput(i int) (block int, name string) {
	if i == 0 {
		return -1, "embed.out"
	}
	return i - 1, "resid2.out"
}

// prepareWeight recovers the resident integer operand of one weight
// site from its fake-quantized tensor.
func prepareWeight(weights map[string]*quant.Params, site vit.Site, l *vit.Linear) (*PreparedOperand, error) {
	p := weights[site.Key()]
	if p == nil {
		return nil, fmt.Errorf("accel: weight %s has no calibrated params (the simulator needs a QUQ model)", site.Key())
	}
	prep, err := PrepareQuantized(p, l.W.Data(), l.W.Dim(0), l.W.Dim(1))
	if err != nil {
		return nil, fmt.Errorf("accel: weight %s: %w", site.Key(), err)
	}
	return prep, nil
}

// NewBlockRunner builds the integer datapath for block index i of a
// quantized plain ViT. acts maps activation site keys (vit.Site.Key) to
// their calibrated QUQ params and weights maps weight site keys to the
// params the weights were fake-quantized with; blk must carry those
// fake-quantized weights.
func NewBlockRunner(blk *vit.Block, i int, acts, weights map[string]*quant.Params, arr ArrayConfig) (*BlockRunner, error) {
	a := &siteParams{m: acts}
	r := &BlockRunner{blk: blk, arr: arr}
	r.in = a.get(blockInput(i))
	ln1Out := a.get(i, "ln1.out")
	r.q, r.k, r.v = a.get(i, "attn.q"), a.get(i, "attn.k"), a.get(i, "attn.v")
	r.softmaxIn = a.get(i, "attn.softmax_in")
	softmaxOut := a.get(i, "attn.softmax_out")
	r.projIn = a.get(i, "attn.proj_in")
	r.projOut = a.get(i, "attn.proj_out")
	resid1 := a.get(i, "resid1.out")
	ln2Out := a.get(i, "ln2.out")
	r.geluIn = a.get(i, "mlp.gelu_in")
	geluOut := a.get(i, "mlp.gelu_out")
	r.fc2Out = a.get(i, "mlp.fc2_out")
	resid2 := a.get(i, "resid2.out")
	if err := a.err(); err != nil {
		return nil, err
	}

	var err error
	if r.ln1, err = sfu.NewLayerNormUnit(r.in, ln1Out, blk.LN1.Gamma, blk.LN1.Beta); err != nil {
		return nil, fmt.Errorf("accel: ln1 unit: %w", err)
	}
	if r.ln2, err = sfu.NewLayerNormUnit(resid1, ln2Out, blk.LN2.Gamma, blk.LN2.Beta); err != nil {
		return nil, fmt.Errorf("accel: ln2 unit: %w", err)
	}
	if r.softmax, err = sfu.NewUnit(r.softmaxIn, softmaxOut); err != nil {
		return nil, fmt.Errorf("accel: softmax unit: %w", err)
	}
	if r.gelu, err = sfu.NewUnit(r.geluIn, geluOut); err != nil {
		return nil, fmt.Errorf("accel: gelu unit: %w", err)
	}
	if r.add1, err = sfu.NewAddUnit(r.in, r.projOut, resid1); err != nil {
		return nil, fmt.Errorf("accel: residual adder 1: %w", err)
	}
	if r.add2, err = sfu.NewAddUnit(resid1, r.fc2Out, resid2); err != nil {
		return nil, fmt.Errorf("accel: residual adder 2: %w", err)
	}

	qkv, err := prepareWeight(weights, vit.Site{Block: i, Name: "attn.qkv.w"}, blk.QKV)
	if err != nil {
		return nil, err
	}
	dim := blk.QKV.W.Dim(0)
	r.pQ = qkv.SliceCols(0, dim)
	r.pK = qkv.SliceCols(dim, 2*dim)
	r.pV = qkv.SliceCols(2*dim, 3*dim)
	if r.pProj, err = prepareWeight(weights, vit.Site{Block: i, Name: "attn.proj.w"}, blk.Proj); err != nil {
		return nil, err
	}
	if r.pFC1, err = prepareWeight(weights, vit.Site{Block: i, Name: "mlp.fc1.w"}, blk.FC1); err != nil {
		return nil, err
	}
	if r.pFC2, err = prepareWeight(weights, vit.Site{Block: i, Name: "mlp.fc2.w"}, blk.FC2); err != nil {
		return nil, err
	}
	for _, reg := range []struct {
		dst  *qub.Registers
		p    *quant.Params
		site string
	}{
		{&r.rLN1, ln1Out, "ln1.out"},
		{&r.rLN2, ln2Out, "ln2.out"},
		{&r.rQ, r.q, "attn.q"},
		{&r.rK, r.k, "attn.k"},
		{&r.rV, r.v, "attn.v"},
		{&r.rSoftmaxOut, softmaxOut, "attn.softmax_out"},
		{&r.rProjIn, r.projIn, "attn.proj_in"},
		{&r.rGeluOut, geluOut, "mlp.gelu_out"},
	} {
		if *reg.dst, err = qub.RegistersFor(reg.p); err != nil {
			return nil, fmt.Errorf("accel: registers for %s: %w", reg.site, err)
		}
	}
	return r, nil
}

// gemmQ runs x ([m,k] QUB with regs rx) against a dynamically-produced
// QUB word operand (the attention GEMMs, whose right-hand sides are
// activations), adds the layer bias in accumulator units, and
// requantizes into pout. scale is an extra factor folded into the
// accumulator unit (1 except for attention's 1/√d_h).
func (r *BlockRunner) gemmQ(x []qub.Word, rx qub.Registers, w []qub.Word, rw qub.Registers,
	m, k, n int, bias []float64, scale float64, pout *quant.Params, stats *RunStats) ([]qub.Word, error) {

	res, err := r.arr.GEMM(x, rx, w, rw, m, k, n, nil)
	if err != nil {
		return nil, err
	}
	//quq:float-ok accumulator-unit derivation is requantizer configuration (exact power-of-two products), computed once per GEMM, not per-element datapath work
	accUnit := rx.BaseDelta * rw.BaseDelta * scale
	return r.finishGEMM(res, accUnit, m, n, bias, pout, stats)
}

// gemmP runs x ([m,k] QUB with regs rx) against a resident prepared
// weight operand — decoded once at construction, reused by every Run —
// then adds the bias and requantizes like gemmQ.
func (r *BlockRunner) gemmP(x []qub.Word, rx qub.Registers, w *PreparedOperand,
	m, k int, bias []float64, pout *quant.Params, stats *RunStats) ([]qub.Word, error) {

	res, err := r.arr.GEMMPrepared(x, rx, w, m, k, nil)
	if err != nil {
		return nil, err
	}
	//quq:float-ok accumulator-unit derivation is requantizer configuration (exact power-of-two products), computed once per GEMM, not per-element datapath work
	accUnit := rx.BaseDelta * w.Delta
	return r.finishGEMM(res, accUnit, m, w.Cols, bias, pout, stats)
}

// finishGEMM is the shared epilogue of gemmQ/gemmP: cycle accounting,
// bias addition in accumulator units, and requantization into pout.
func (r *BlockRunner) finishGEMM(res *GEMMResult, accUnit float64, m, n int,
	bias []float64, pout *quant.Params, stats *RunStats) ([]qub.Word, error) {

	stats.add(res.Stats)
	qu, err := NewQuantizeUnit(pout, accUnit)
	if err != nil {
		return nil, err
	}
	// Bias in accumulator units (a constant per output column, added to
	// the accumulator before requantization — standard practice).
	var biasAcc []int64
	if bias != nil {
		biasAcc = make([]int64, n)
		for j, b := range bias {
			//quq:float-ok one-time weight-loading conversion of the float bias into integer accumulator units; hardware does this at model-load, not inference
			biasAcc[j] = int64(math.RoundToEven(b / accUnit))
		}
	}
	out := make([]qub.Word, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := res.Acc[i*n+j]
			if biasAcc != nil {
				acc += biasAcc[j]
			}
			out[i*n+j] = qub.Encode(pout, qu.Requantize(acc))
		}
	}
	return out, nil
}

// Run executes the block on input x ([T, dim], floating point at the
// boundary) and returns the decoded output together with the float
// values of every intermediate. The input is encoded with the block-input
// quantizer; everything in between stays integer.
func (r *BlockRunner) Run(x *tensor.Tensor) (*tensor.Tensor, *RunStats, error) {
	t := x.Dim(0)
	dim := x.Dim(1)
	heads := r.blk.Heads
	dh := dim / heads
	stats := &RunStats{}

	xw := qub.EncodeTensor(r.in, x.Data())

	// LayerNorm 1 (row-wise SFU).
	h1 := make([]qub.Word, len(xw))
	for row := 0; row < t; row++ {
		copy(h1[row*dim:(row+1)*dim], r.ln1.Row(xw[row*dim:(row+1)*dim]))
	}

	// QKV projection: q, k and v carry separate quantizers, so the GEMM
	// runs as three column groups, each fanned into its own quantization
	// unit (hardware shares the accumulators; the cycle model charges
	// each group's tile schedule).
	qWords, err := r.gemmP(h1, r.rLN1, r.pQ, t, dim, r.blk.QKV.B[:dim], r.q, stats)
	if err != nil {
		return nil, nil, err
	}
	kW, err := r.gemmP(h1, r.rLN1, r.pK, t, dim, r.blk.QKV.B[dim:2*dim], r.k, stats)
	if err != nil {
		return nil, nil, err
	}
	vW, err := r.gemmP(h1, r.rLN1, r.pV, t, dim, r.blk.QKV.B[2*dim:], r.v, stats)
	if err != nil {
		return nil, nil, err
	}

	// Attention per head: scores = Q·Kᵀ/√dh -> softmax SFU -> ·V.
	ctx := make([]qub.Word, t*dim)
	//quq:float-ok 1/√d_h is a compile-time constant of the head geometry, folded into the requantizer configuration — not a runtime datapath value
	scale := 1 / math.Sqrt(float64(dh))
	for hd := 0; hd < heads; hd++ {
		qh := sliceCols(qWords, t, dim, hd*dh, (hd+1)*dh)                     // [t, dh]
		khT := transposeWords(sliceCols(kW, t, dim, hd*dh, (hd+1)*dh), t, dh) // [dh, t]
		scores, err := r.gemmQ(qh, r.rQ, khT, r.rK, t, dh, t, nil, scale, r.softmaxIn, stats)
		if err != nil {
			return nil, nil, err
		}
		probs := make([]qub.Word, t*t)
		for row := 0; row < t; row++ {
			copy(probs[row*t:(row+1)*t], r.softmax.Softmax(scores[row*t:(row+1)*t]))
		}
		vh := sliceCols(vW, t, dim, hd*dh, (hd+1)*dh) // [t, dh]
		ctxH, err := r.gemmQ(probs, r.rSoftmaxOut, vh, r.rV, t, t, dh, nil, 1, r.projIn, stats)
		if err != nil {
			return nil, nil, err
		}
		// Scatter head context into [t, dim].
		for row := 0; row < t; row++ {
			copy(ctx[row*dim+hd*dh:row*dim+(hd+1)*dh], ctxH[row*dh:(row+1)*dh])
		}
	}

	projOut, err := r.gemmP(ctx, r.rProjIn, r.pProj, t, dim, r.blk.Proj.B, r.projOut, stats)
	if err != nil {
		return nil, nil, err
	}

	// Residual 1.
	x1 := r.add1.Add(xw, projOut)

	// LayerNorm 2 + MLP.
	h2 := make([]qub.Word, len(x1))
	for row := 0; row < t; row++ {
		copy(h2[row*dim:(row+1)*dim], r.ln2.Row(x1[row*dim:(row+1)*dim]))
	}
	hidden := r.blk.FC1.Out()
	hid, err := r.gemmP(h2, r.rLN2, r.pFC1, t, dim, r.blk.FC1.B, r.geluIn, stats)
	if err != nil {
		return nil, nil, err
	}
	act := r.gelu.GELU(hid)
	mlpOut, err := r.gemmP(act, r.rGeluOut, r.pFC2, t, hidden, r.blk.FC2.B, r.fc2Out, stats)
	if err != nil {
		return nil, nil, err
	}

	// Residual 2.
	x2 := r.add2.Add(x1, mlpOut)
	regsOut, err := r.add2.OutRegisters()
	if err != nil {
		return nil, nil, err
	}
	out := tensor.FromSlice(qub.DecodeTensor(x2, regsOut), t, dim)
	return out, stats, nil
}

// sliceCols extracts columns [lo, hi) of a row-major [rows, cols] word
// matrix into a new [rows, hi-lo] matrix.
func sliceCols(w []qub.Word, rows, cols, lo, hi int) []qub.Word {
	out := make([]qub.Word, rows*(hi-lo))
	for r := 0; r < rows; r++ {
		copy(out[r*(hi-lo):(r+1)*(hi-lo)], w[r*cols+lo:r*cols+hi])
	}
	return out
}

// transposeWords transposes a row-major [rows, cols] word matrix.
func transposeWords(w []qub.Word, rows, cols int) []qub.Word {
	out := make([]qub.Word, len(w))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out[c*rows+r] = w[r*cols+c]
		}
	}
	return out
}
