package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"quq/internal/serve"
	"quq/internal/serve/metrics"
	"quq/internal/shard"
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan error // Serve's return value
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for Serve to return.
func (l *listener) close(ctx context.Context) error {
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// fleet is the system under test: serve backends, and for sharded
// workloads a shard front over them, each on its own loopback port.
type fleet struct {
	backends []*serve.Server
	backURLs []*listener
	front    *shard.Front
	frontL   *listener
	entry    string // base URL the clients talk to
}

// serveConfig is the backend recipe of docs/TUNING.md the workload
// names: "latency-sensitive" (governor on) for the open loop,
// "throughput-bound" (governor off, static batching) for the closed
// loops. The open loop sets no latency budget: admission control sheds
// on an estimate that follows the host's speed, so the number of shed
// requests would differ between runs of the same code, and a shed
// request is a failed operation. The latency limit is judged on the
// client side instead, by slo_attainment.
func serveConfig(w workload, tr *tracer, backend int) serve.Config {
	cfg := serve.Config{
		Registry: serve.RegistryOptions{Seed: modelSeed, IntPath: w.intPath},
		Batcher:  serve.BatcherOptions{MaxBatch: 8},
	}
	if w.open {
		cfg.Governor = serve.GovernorOptions{Window: 500 * time.Millisecond, MaxIntraOp: 1}
	}
	if tr != nil {
		cfg.Registry.BuildHook = tr.buildHook(backend)
		cfg.Batcher.ForwardHook = tr.forwardHook(backend)
	}
	return cfg
}

// bootFleet starts the workload's servers. tr, when non-nil, wraps
// every handler with span recording and installs the build and forward
// hooks; the untraced run leaves the program exactly as shipped.
func bootFleet(w workload, tr *tracer) (*fleet, error) {
	f := &fleet{}
	n := 1
	if w.sharded {
		n = 2
	}
	for i := 0; i < n; i++ {
		s := serve.New(serveConfig(w, tr, i))
		var h http.Handler = s.Handler()
		if tr != nil {
			h = tr.wrap(h, i)
		}
		l, err := listen(h)
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		f.backends = append(f.backends, s)
		f.backURLs = append(f.backURLs, l)
	}
	f.entry = f.backURLs[0].url
	if w.sharded {
		addrs := make([]string, n)
		for i, l := range f.backURLs {
			addrs[i] = l.url
		}
		f.front = shard.New(shard.Options{Backends: addrs, Replicas: 2})
		var h http.Handler = f.front.Handler()
		if tr != nil {
			h = tr.wrap(h, frontSpan)
		}
		l, err := listen(h)
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		f.frontL = l
		f.entry = l.url
	}
	return f, nil
}

// backendIndex maps the front's X-Quq-Shard header to a backend.
func (f *fleet) backendIndex(addr string) int {
	for i, l := range f.backURLs {
		if l.url == addr {
			return i
		}
	}
	return -1
}

// close stops the front first, then drains and stops every backend.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if f.frontL != nil {
		errs = append(errs, f.frontL.close(ctx))
	}
	if f.front != nil {
		f.front.Close()
	}
	for i, l := range f.backURLs {
		errs = append(errs, l.close(ctx), f.backends[i].Drain(ctx))
	}
	return errors.Join(errs...)
}

// post sends one JSON body and returns the status, headers and the
// whole response body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, resp.Header, b, err
}

// scrapeMetrics reads the entry point's /metrics: the front's merged
// fleet view on sharded workloads, the backend's own page otherwise.
func (f *fleet) scrapeMetrics(ctx context.Context, c *http.Client) (*metrics.Exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.entry+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	var e *metrics.Exposition
	if err == nil {
		e, err = metrics.ParseText(bytes.NewReader(b))
	}
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return e, nil
}

// quantizeAll warms every workload key through the entry point with at
// most `clients` calls in flight and returns each call's reply time.
func (f *fleet) quantizeAll(ctx context.Context, c *http.Client, w workload) ([]time.Time, error) {
	replies := make([]time.Time, len(w.keys))
	errs := make([]error, len(w.keys))
	sem := make(chan struct{}, clients)
	var wg sync.WaitGroup
	for i, k := range w.keys {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, k serve.Key) {
			defer wg.Done()
			defer func() { <-sem }()
			body := fmt.Appendf(nil, `{"model":%q,"method":%q,"bits":%d,"regime":%q}`, k.Config, k.Method, k.Bits, k.Regime.String())
			code, _, resp, err := post(ctx, c, f.entry+"/v1/quantize", body)
			replies[i] = time.Now()
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("status %d: %s", code, resp)
			}
			if err != nil {
				errs[i] = fmt.Errorf("quantize %s: %w", k, err)
			}
		}(i, k)
	}
	wg.Wait()
	return replies, errors.Join(errs...)
}

// setup boots a fleet and calibrates the workload's keys through
// /v1/quantize: the cost a user pays before the first classify.
func setup(ctx context.Context, c *http.Client, w workload, tr *tracer) (*fleet, time.Duration, []time.Time, error) {
	start := time.Now()
	f, err := bootFleet(w, tr)
	if err != nil {
		return nil, 0, nil, err
	}
	replies, err := f.quantizeAll(ctx, c, w)
	d := time.Since(start)
	if err != nil {
		return nil, 0, nil, errors.Join(err, f.close())
	}
	return f, d, replies, nil
}
