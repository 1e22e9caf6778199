package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"quq/internal/shard"
)

// refs are the expected outputs of every pool image, computed before
// the timed phase from the serving backends' own models.
type refs struct {
	logits [][][][]float64 // [backend][key][pool index]
	fp32   [][]int         // [key][pool index]: FP32 argmax
}

// outcome is what the client saw for one request.
type outcome struct {
	rid  int
	due  time.Time // the schedule time (open loop) or the send (closed loop)
	sent time.Time
	// start is when the latency clock starts: the due time, or the send
	// when the generator was idle at the due time and only its timer
	// fired late.
	start    time.Time
	done     time.Time
	status   int
	ok       bool // 200 and every image's logits bit-identical to the reference
	mismatch bool // 200 but some output differs from the reference
	images   int
	agree    int // served images whose argmax equals the FP32 model's
}

type classifyResponse struct {
	Results []struct {
		ArgMax int       `json:"argmax"`
		Logits []float64 `json:"logits"`
	} `json:"results"`
}

// check compares one response with the references, bit for bit.
func (o *outcome) check(w workload, f *fleet, ref *refs, r request, hdr http.Header, body []byte) {
	backend := 0
	if w.sharded {
		backend = f.backendIndex(hdr.Get(shard.BackendHeader))
	}
	var resp classifyResponse
	if backend < 0 || json.Unmarshal(body, &resp) != nil || len(resp.Results) != len(r.imgs) {
		o.mismatch = true
		return
	}
	for j, idx := range r.imgs {
		got := resp.Results[j]
		want := ref.logits[backend][r.key][idx]
		if len(got.Logits) != len(want) {
			o.mismatch = true
			return
		}
		for c := range want {
			if math.Float64bits(got.Logits[c]) != math.Float64bits(want[c]) {
				o.mismatch = true
				return
			}
		}
		if got.ArgMax == ref.fp32[r.key][idx] {
			o.agree++
		}
	}
	o.ok = true
}

// phase is one timed run of the plan against a fleet.
type phase struct {
	start    time.Time
	end      time.Time // last completion
	outcomes []outcome
}

// runPhase drives the plan: open loop issues each request at its due
// time from `clients` goroutines (a late generator shows as send lag,
// and latency still counts from the due time); closed loop keeps
// `clients` requests in flight until the duration is over and at least
// minRequests have completed. ridBase keeps request ids unique across
// phases.
func runPhase(ctx context.Context, c *http.Client, w workload, f *fleet, in *inputs, ref *refs,
	seconds float64, minRequests, ridBase int) *phase {
	ph := &phase{start: time.Now()}
	deadline := ph.start.Add(time.Duration(seconds * float64(time.Second)))
	hardStop := ph.start.Add(time.Duration(3 * seconds * float64(time.Second)))
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				var r request
				var due time.Time
				idle := false
				if w.open {
					if i >= len(in.plan) {
						return
					}
					r = in.plan[i]
					due = ph.start.Add(r.due)
					if d := time.Until(due); d > 0 {
						//quq:sleep-ok open-loop generator waits for the request's scheduled arrival
						time.Sleep(d)
						idle = true
					}
				} else {
					now := time.Now()
					if now.After(hardStop) || (now.After(deadline) && i >= minRequests) {
						return
					}
					r = in.plan[i%len(in.plan)]
				}
				o := outcome{rid: ridBase + i, images: len(r.imgs), sent: time.Now()}
				if !w.open {
					due = o.sent
				}
				o.due, o.start = due, due
				if idle {
					// The goroutine was free when the request fell due, so
					// any delay past the due time is the timer waking it
					// late, not the system holding it up.
					o.start = o.sent
				}
				code, hdr, body, err := post(ctx, c, f.entry+"/v1/classify", in.body(w, o.rid, r))
				o.done = time.Now()
				o.status = code
				if err == nil && code == http.StatusOK {
					o.check(w, f, ref, r, hdr, body)
				}
				mu.Lock()
				ph.outcomes = append(ph.outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.end = ph.start
	for _, o := range ph.outcomes {
		if o.done.After(ph.end) {
			ph.end = o.done
		}
	}
	return ph
}

// windows is how many equal parts a timed phase is split into. The
// end-to-end figures are medians over the parts, so a stall confined to
// one part (a neighbour's burst on a shared host) does not set the run's
// number.
const windows = 3

// window is one part of a timed phase.
type window struct {
	P25        quantile `json:"latency_p25_ms"`
	SLO        float64  `json:"slo_attainment"`
	Throughput float64  `json:"throughput_img_s"`
}

// summary is the end-to-end view of one phase.
type summary struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Shed      int `json:"shed"` // 429: shed by admission control or queue backpressure
	Failed    int `json:"failed"`
	Mismatch  int `json:"mismatch"`

	Windows []window `json:"windows"`
	// P25, SLO and Throughput are medians over the windows; the median
	// and tail percentiles are over the whole phase.
	P25        float64  `json:"latency_p25_ms"`
	P50        quantile `json:"latency_p50_ms"`
	P90        quantile `json:"latency_p90_ms"`
	P99        quantile `json:"latency_p99_ms"`
	SLO        float64  `json:"slo_attainment"`
	Throughput float64  `json:"throughput_img_s"`
	Success    float64  `json:"success_rate"`
	ErrorRate  float64  `json:"error_rate"`
	Agreement  float64  `json:"top1_agreement"`
	SendLagP99 quantile `json:"send_lag_p99_ms"`
	ElapsedS   float64  `json:"elapsed_s"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func summarize(w workload, ph *phase) summary {
	s := summary{Sent: len(ph.outcomes)}
	elapsed := ph.end.Sub(ph.start)
	s.ElapsedS = elapsed.Seconds()
	// Requests belong to the window of their due time; completions
	// count towards the throughput of the window they land in.
	var span time.Duration
	for _, o := range ph.outcomes {
		if d := o.due.Sub(ph.start); d > span {
			span = d
		}
	}
	span++
	part := func(d, of time.Duration) int {
		i := int(int64(d) * windows / int64(of))
		if i >= windows {
			i = windows - 1
		}
		return i
	}
	lat := make([][]float64, windows)
	inSLO := make([]int, windows)
	sent := make([]int, windows)
	done := make([]int, windows)
	var all, lag []float64
	var imgs, agree int
	for _, o := range ph.outcomes {
		wi := part(o.due.Sub(ph.start), span)
		sent[wi]++
		lag = append(lag, ms(o.sent.Sub(o.due)))
		switch {
		case o.ok:
			s.Succeeded++
			l := o.done.Sub(o.start)
			lat[wi] = append(lat[wi], ms(l))
			all = append(all, ms(l))
			imgs += o.images
			agree += o.agree
			done[part(o.done.Sub(ph.start), elapsed+1)] += o.images
			if l <= w.limit {
				inSLO[wi]++
			}
		case o.status == http.StatusTooManyRequests:
			s.Shed++
		default:
			if o.mismatch {
				s.Mismatch++
			}
		}
	}
	s.Failed = s.Sent - s.Succeeded
	var p25s, slos, thr []float64
	for i := 0; i < windows; i++ {
		wd := window{P25: nearestRank(lat[i], 0.25)}
		if sent[i] > 0 {
			wd.SLO = float64(inSLO[i]) / float64(sent[i])
		}
		wd.Throughput = float64(done[i]) / (elapsed.Seconds() / windows)
		s.Windows = append(s.Windows, wd)
		p25s = append(p25s, wd.P25.Value)
		slos = append(slos, wd.SLO)
		thr = append(thr, wd.Throughput)
	}
	s.P25 = median(p25s)
	s.SLO = median(slos)
	s.Throughput = median(thr)
	s.P50 = nearestRank(all, 0.50)
	s.P90 = nearestRank(all, 0.90)
	s.P99 = nearestRank(all, 0.99)
	if w.open {
		s.SendLagP99 = nearestRank(lag, 0.99)
	}
	if s.Sent > 0 {
		s.Success = float64(s.Succeeded) / float64(s.Sent)
		s.ErrorRate = 1 - s.Success
	}
	if imgs > 0 {
		s.Agreement = float64(agree) / float64(imgs)
	}
	return s
}
