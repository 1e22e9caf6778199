package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"quq/internal/data"
	"quq/internal/rng"
	"quq/internal/serve"
	"quq/internal/tensor"
	"quq/internal/vit"
)

// modelSeed is the registry seed every backend is built with: it fixes
// the synthetic weights and calibration images, so it belongs to the
// program under test, not to the workload. The workload seed only
// drives the inputs the program receives.
const modelSeed = 2024

// workload is one traffic mix. See README.md for why each exists.
type workload struct {
	name   string
	keys   []serve.Key
	images int // images per request

	// Open loop: Poisson arrivals at rate requests/s. Closed loop
	// otherwise: clients back-to-back. Either is judged against a fixed
	// latency limit, about five times the unloaded median latency.
	open  bool
	rate  float64
	limit time.Duration

	sharded bool // through a shard front with two replicas
	intPath bool // registry IntPath on
	pool    int  // distinct images per key
	setups  int  // set-ups per run; setup_s is their median
	warmup  int  // untimed requests before each timed phase
}

// clients bounds both the request-issuing goroutines and the client
// connections: the machine the benchmark targets has two cores.
const clients = 2

func mustKey(model, regime string) serve.Key {
	k, err := serve.KeyFromWire(model, "QUQ", 6, regime)
	if err != nil {
		panic(err) // the literals below are valid keys
	}
	return k
}

var workloads = []workload{
	{
		name: "nano-open", keys: []serve.Key{mustKey("ViT-Nano", "partial")}, images: 1,
		open: true, rate: 190, limit: 13 * time.Millisecond,
		sharded: true, pool: 64, setups: 5, warmup: 50,
	},
	{
		name:   "zoo-batch",
		keys:   []serve.Key{mustKey("ViT-S", "full"), mustKey("DeiT-S", "full"), mustKey("Swin-T", "full")},
		images: 8, limit: 775 * time.Millisecond, pool: 48, setups: 3, warmup: 3,
	},
	{
		name:   "zoo-int",
		keys:   []serve.Key{mustKey("ViT-S", "full"), mustKey("DeiT-S", "full"), mustKey("Swin-T", "full")},
		images: 8, limit: 775 * time.Millisecond, intPath: true, pool: 48, setups: 3, warmup: 3,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config returns the zoo configuration of a registry key.
func config(k serve.Key) vit.Config {
	for _, c := range append(append([]vit.Config(nil), vit.ZooConfigs...), vit.ViTNano) {
		if c.Name == k.Config {
			return c
		}
	}
	panic("unknown config " + k.Config) // keys come from the table above
}

// fp32Seed is the seed the registry builds a config's FP32 base model
// with: the experiments' convention of offsetting the shared seed by
// 1000 per zoo position, ViT-Nano after the zoo.
func fp32Seed(name string) uint64 {
	for i, c := range vit.ZooConfigs {
		if c.Name == name {
			return modelSeed + uint64(i)*1000
		}
	}
	return modelSeed + uint64(len(vit.ZooConfigs))*1000
}

// request is one planned classify call.
type request struct {
	due  time.Duration // open loop: offset from the phase start
	key  int           // index into workload.keys
	imgs []int         // pool indices
}

// inputs is everything a workload seed determines: the image pool per
// key, their wire encodings, and the request plan.
type inputs struct {
	images [][]*tensor.Tensor // [key][pool index]
	wire   [][][]byte         // JSON of each image's flat pixel array
	plan   []request
}

// closedPlanLen bounds the closed-loop plan; a run that issues more
// requests wraps around, which keeps it deterministic.
const closedPlanLen = 4096

// newInputs derives a workload's inputs from its seed. The same seed
// gives the same pool, arrival schedule, image sequence and key
// rotation; nothing else feeds into them.
func newInputs(w workload, seed uint64, seconds float64) (*inputs, error) {
	master := rng.New(seed)
	in := &inputs{}
	for _, k := range w.keys {
		imgs := data.Images(config(k), w.pool, master.Uint64())
		enc := make([][]byte, len(imgs))
		for i, img := range imgs {
			b, err := json.Marshal(img.Data())
			if err != nil {
				return nil, fmt.Errorf("encoding image: %w", err)
			}
			enc[i] = b
		}
		in.images = append(in.images, imgs)
		in.wire = append(in.wire, enc)
	}
	src := master.Split()
	if w.open {
		// A Poisson process conditioned on its count: n arrivals placed
		// uniformly over the phase. The offered load is then exactly
		// rate·seconds on every seed; only the gaps vary.
		n := int(math.Round(w.rate * seconds))
		dues := make([]float64, n)
		for i := range dues {
			dues[i] = src.Float64() * seconds
		}
		sort.Float64s(dues)
		for _, d := range dues {
			in.plan = append(in.plan, request{
				due:  time.Duration(d * float64(time.Second)),
				imgs: drawImages(src, w),
			})
		}
		return in, nil
	}
	// Closed loop: requests rotate over the keys from a seeded start.
	off := src.Intn(len(w.keys))
	for i := 0; i < closedPlanLen; i++ {
		in.plan = append(in.plan, request{key: (off + i) % len(w.keys), imgs: drawImages(src, w)})
	}
	return in, nil
}

func drawImages(src *rng.Source, w workload) []int {
	idx := make([]int, w.images)
	for i := range idx {
		idx[i] = src.Intn(w.pool)
	}
	return idx
}

// body renders request i of the plan as a classify body. The leading
// "rid" field carries the request id the traced run joins spans by;
// the front-end forwards bodies verbatim and serve ignores the field.
func (in *inputs) body(w workload, rid int, r request) []byte {
	k := w.keys[r.key]
	b := fmt.Appendf(nil, `{"rid":%d,"model":%q,"method":%q,"bits":%d,"regime":%q,"images":[`,
		rid, k.Config, k.Method, k.Bits, k.Regime.String())
	for j, idx := range r.imgs {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, in.wire[r.key][idx]...)
	}
	return append(b, "]}"...)
}
