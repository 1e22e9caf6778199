package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quq/internal/serve"
)

// frontSpan is the layer index of the shard front's handler spans;
// backends use their own index (0, 1, ...).
const frontSpan = -1

// span is one handler invocation, keyed by the request id in the body.
type span struct {
	rid        int
	start, end time.Time
}

// tracer records spans at the layer boundaries the program exposes: a
// wrapper around each Handler(), the batcher's ForwardHook and the
// registry's BuildHook. Spans live in memory until the run ends.
type tracer struct {
	on atomic.Bool // handler spans and forward instants are kept only while set

	mu     sync.Mutex
	spans  map[int][]span               // layer -> spans
	hooks  map[int][]time.Time          // backend -> ForwardHook instants
	builds map[int]map[string]time.Time // backend -> key -> BuildHook instant
}

func newTracer() *tracer {
	return &tracer{
		spans:  map[int][]span{},
		hooks:  map[int][]time.Time{},
		builds: map[int]map[string]time.Time{},
	}
}

// reset drops everything recorded so far (between phases).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = map[int][]span{}
	t.hooks = map[int][]time.Time{}
	t.mu.Unlock()
}

// wrap records a span around every call of h while tracing is on.
func (t *tracer) wrap(h http.Handler, layer int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		rid := peekRID(r)
		h.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		t.spans[layer] = append(t.spans[layer], span{rid: rid, start: start, end: end})
		t.mu.Unlock()
	})
}

func (t *tracer) forwardHook(backend int) func(string) {
	return func(string) {
		if !t.on.Load() {
			return
		}
		now := time.Now()
		t.mu.Lock()
		t.hooks[backend] = append(t.hooks[backend], now)
		t.mu.Unlock()
	}
}

func (t *tracer) buildHook(backend int) func(serve.Key) error {
	return func(k serve.Key) error {
		now := time.Now()
		t.mu.Lock()
		if t.builds[backend] == nil {
			t.builds[backend] = map[string]time.Time{}
		}
		t.builds[backend][k.String()] = now
		t.mu.Unlock()
		return nil
	}
}

type readCloser struct {
	io.Reader
	io.Closer
}

var ridPrefix = []byte(`{"rid":`)

// peekRID reads the request id off the front of a classify body without
// consuming it; -1 when the body carries none.
func peekRID(r *http.Request) int {
	br := bufio.NewReaderSize(r.Body, 64)
	r.Body = readCloser{br, r.Body}
	//quq:errdrop-ok a body shorter than the peek just yields a shorter prefix, checked below
	p, _ := br.Peek(32)
	rest, ok := bytes.CutPrefix(p, ridPrefix)
	if !ok {
		return -1
	}
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return -1
	}
	rid, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return -1
	}
	return rid
}

// dispatch splits one backend span at the request's first forward.
type dispatch struct {
	rid       int
	pre, post time.Duration
}

// joinDispatch assigns a backend's ForwardHook instants to its classify
// spans. The hook carries no request identity, so each instant goes to
// the earliest-started span that is in flight at that instant and still
// owes forwards (imgs(rid) of them): the batcher's queue is first in,
// first out, so this is exact whenever requests do not overtake each
// other inside one backend. A span with no instant is left out.
func joinDispatch(spans []span, hooks []time.Time, imgs func(rid int) int) []dispatch {
	spans = append([]span(nil), spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	hooks = append([]time.Time(nil), hooks...)
	sort.Slice(hooks, func(i, j int) bool { return hooks[i].Before(hooks[j]) })
	owed := make([]int, len(spans))
	first := make([]time.Time, len(spans))
	for i, s := range spans {
		owed[i] = imgs(s.rid)
	}
	lo := 0
	for _, h := range hooks {
		for lo < len(spans) && (owed[lo] == 0 || spans[lo].end.Before(h)) {
			lo++
		}
		for j := lo; j < len(spans) && !spans[j].start.After(h); j++ {
			if owed[j] > 0 && !spans[j].end.Before(h) {
				if first[j].IsZero() {
					first[j] = h
				}
				owed[j]--
				break
			}
		}
	}
	var out []dispatch
	for i, s := range spans {
		if first[i].IsZero() {
			continue
		}
		out = append(out, dispatch{rid: s.rid, pre: first[i].Sub(s.start), post: s.end.Sub(first[i])})
	}
	return out
}
