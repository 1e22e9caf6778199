package main

import (
	"time"
)

// perLayer fills the traced run's metrics: spans joined by request id,
// counter deltas over the traced phase, and the offline layer report.
// A metric whose layer is not on the workload's path reads 0.
func perLayer(res *result, w workload, tr *tracer, ph *phase, sums []summary, deltas map[string]float64,
	lr *layerReport, replies []time.Time) {
	m := res.out.Metrics
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	imgs := map[int]int{}
	lat := map[int]time.Duration{}
	for _, o := range ph.outcomes {
		imgs[o.rid] = o.images
		if o.ok {
			lat[o.rid] = o.done.Sub(o.sent) // generator lateness is reported apart
		}
	}

	tr.mu.Lock()
	front := map[int]span{}
	for _, s := range tr.spans[frontSpan] {
		front[s.rid] = s
	}
	var handler, pre, post, self []float64
	var accounted, observed time.Duration
	for b, spans := range tr.spans {
		if b == frontSpan {
			continue
		}
		for _, s := range spans {
			if s.rid >= 0 { // health probes carry no request id
				handler = append(handler, ms(s.end.Sub(s.start)))
			}
		}
		for _, d := range joinDispatch(tr.spans[b], tr.hooks[b], func(rid int) int { return imgs[rid] }) {
			pre = append(pre, ms(d.pre))
			post = append(post, ms(d.post))
			backend := d.pre + d.post
			total := backend
			if fs, ok := front[d.rid]; ok {
				sd := fs.end.Sub(fs.start) - backend
				self = append(self, ms(sd))
				total += sd
			}
			if l, ok := lat[d.rid]; ok {
				accounted += total
				observed += l
			}
		}
	}
	spanCount := len(tr.spans[frontSpan])
	tr.mu.Unlock()

	set("shard.self_ms_p50", "ms", nearestRank(self, 0.5).Value)
	set("shard.retries", "count", deltas["shard.retries"])
	set("shard.failovers", "count", deltas["shard.failovers"])
	set("serve.handler_ms_p50", "ms", nearestRank(handler, 0.5).Value)
	set("serve.handler_ms_p99", "ms", nearestRank(handler, 0.99).Value)
	set("serve.pre_dispatch_ms_p50", "ms", nearestRank(pre, 0.5).Value)
	set("serve.pre_dispatch_ms_p99", "ms", nearestRank(pre, 0.99).Value)
	set("serve.post_dispatch_ms_p50", "ms", nearestRank(post, 0.5).Value)
	set("serve.batch_size_mean", "images", deltas["serve.batch_size_mean"])
	set("serve.shed", "count", deltas["serve.shed"])
	set("serve.rejected", "count", deltas["serve.rejected"])
	set("serve.cache_misses", "count", deltas["serve.cache_misses"])
	set("serve.build_s", "s", buildSeconds(tr, w, replies))

	set("ptq.forward_ms_p50", "ms", lr.ForwardP50MS)
	set("ptq.quantizer_ms", "ms", lr.QuantizerMS)
	set("ptq.int_gemm_ms", "ms", lr.IntGEMMMS)
	set("ptq.allocs_per_forward", "count", lr.Allocs)
	set("ptq.bytes_per_forward", "bytes", lr.Bytes)
	set("ptq.calibrate_s", "s", lr.CalibrateS)
	set("ptq.collect_s", "s", lr.CollectS)
	set("ptq.prepare_int_s", "s", lr.PrepareIntS)
	for _, op := range opNames {
		set("vit."+op+"_ms", "ms", lr.OpMS[op])
	}
	set("tensor.gemm_ns_per_forward", "ns", lr.GEMMNs)
	set("tensor.gemm_gflops", "GFLOP/s", lr.GEMMGflops)
	set("tensor.int_gemm_ns_per_forward", "ns", lr.IntGEMMNs)
	set("tensor.int_gemm_gflops", "GOP/s", lr.IntGEMMGflops)
	set("tensor.gemm_bytes_per_forward", "bytes", lr.GEMMBytes)

	untraced, traced := sums[0], sums[1]
	set("bench.send_lag_ms_p99", "ms", traced.SendLagP99.Value)
	overhead := 0.0
	if untraced.P50.Value > 0 {
		overhead = traced.P50.Value / untraced.P50.Value
	}
	set("bench.trace_overhead", "ratio", overhead)
	share := 0.0
	if observed > 0 {
		share = float64(accounted) / float64(observed)
	}
	set("bench.accounted_share", "ratio", share)

	res.meta["trace_samples"] = map[string]int{
		"front_spans": spanCount, "handler_spans": len(handler),
		"dispatch_joined": len(pre), "shard_joined": len(self),
	}
}
