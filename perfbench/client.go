package main

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/davclient"
	"repro/internal/obs/trace"
)

// countingTransport counts response body bytes on one persistent
// connection.
type countingTransport struct {
	base  *http.Transport
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// opRecord is one timed workload request.
type opRecord struct {
	kind    string
	dur     time.Duration
	failed  bool
	traceID trace.TraceID // zero when untraced
}

// client is one closed-loop caller: a davclient over its own single
// persistent connection, a seeded random source, and its op log.
type client struct {
	dc     *davclient.Client
	tr     *countingTransport
	tracer *trace.Tracer // nil in untraced runs
	rnd    *rand.Rand
	ops    []opRecord
	loops  []time.Duration
	sent   map[string]int // requests by kind over the client's life
	// onOp runs after each op is recorded (the traced run harvests
	// server traces from it); nil when unused.
	onOp func()
}

func newClient(base string, seed int64, tracer *trace.Tracer) (*client, error) {
	tr := &countingTransport{base: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
	}}
	dc, err := davclient.New(davclient.Config{BaseURL: base, Transport: tr, Tracer: tracer, Timeout: time.Minute})
	if err != nil {
		return nil, err
	}
	return &client{dc: dc, tr: tr, tracer: tracer, rnd: rand.New(rand.NewSource(seed)), sent: map[string]int{}}, nil
}

func (c *client) close() { c.tr.base.CloseIdleConnections() }

// do times one request under a "bench.<kind>" span (traced runs only)
// and records it. fn issues the request; its error marks the op failed
// and is returned. Callers check the answer after do returns.
func (c *client) do(kind string, fn func(dc *davclient.Client) error) error {
	dc := c.dc
	var sp *trace.Span
	if c.tracer != nil {
		var ctx context.Context
		ctx, sp = c.tracer.Start(context.Background(), "bench."+kind)
		dc = dc.WithContext(ctx)
	}
	start := time.Now()
	err := fn(dc)
	d := time.Since(start)
	rec := opRecord{kind: kind, dur: d, failed: err != nil}
	if sp != nil {
		rec.traceID = sp.TraceID()
		if sd := sp.EndErr(err); sd > 0 {
			rec.dur = sd
		}
	}
	c.ops = append(c.ops, rec)
	c.sent[kind]++
	if c.onOp != nil {
		c.onOp()
	}
	return err
}
