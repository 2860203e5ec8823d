package store

import (
	"context"
	"encoding/xml"
	"io"
	"time"

	"repro/internal/obs/trace"
)

// OpObserver receives one store operation's name, wall-clock duration,
// and error (nil on success). Implementations must be safe for
// concurrent use; the telemetry layer supplies one that records
// latency histograms and error counters.
type OpObserver func(op string, d time.Duration, err error)

// NopObserver discards observations. Pass it to Instrument when only
// tracing (not metrics) is wanted: the wrapper still creates spans.
var NopObserver OpObserver = func(string, time.Duration, error) {}

// Instrument wraps s in the one store decorator: every Store operation
// is timed and reported to obs, recorded as a child span named
// "store.<op>" when its context carries an active trace span, and run
// under its own deadline of opTimeout. The span's context is what flows
// down into the wrapped store, so deeper layers (lock waits, DBM
// calls) nest under it. The span and the observer see the same
// duration, measured once on the tracer's clock, so a trace and the
// latency histogram can never disagree about one operation.
//
// The deadline is the davd -store-op-timeout knob: a per-operation
// bound that keeps one pathological request (a lock convoy on a hot
// collection, a scan of a huge property database) from holding server
// resources indefinitely, independent of the whole-request timeout,
// which must stay generous enough for 200 MB document transfers. It
// applies per store call, not per request: a PROPFIND that makes many
// store calls gets a fresh budget for each. When it fires the operation
// returns an error wrapping context.DeadlineExceeded, which the DAV
// layer maps to 503 with a Retry-After. A zero (or negative) opTimeout
// disables the deadline.
//
// Get timings and deadlines cover opening the document, not streaming
// its body: the returned reader outlives the deadline, which is
// released on Close, so a slow client streaming a large body is not cut
// off (the HTTP layer's response-size histograms cover transfer).
//
// A nil observer records nothing but spans; with a zero opTimeout as
// well, Instrument returns s unchanged.
func Instrument(s Store, obs OpObserver, opTimeout time.Duration) Store {
	if obs == nil {
		if opTimeout <= 0 {
			return s
		}
		obs = NopObserver
	}
	return &instrumentedStore{s: s, obs: obs, timeout: opTimeout}
}

type instrumentedStore struct {
	s       Store
	obs     OpObserver
	timeout time.Duration // per-op deadline; <= 0 disables it
}

// begin opens the "store.<op>" span on ctx and bounds it by the per-op
// deadline. It returns the context to run the operation under — the
// span's context, so deeper layers nest under it — plus the finish
// function reporting one shared duration to span and observer alike
// and releasing the deadline.
func (is *instrumentedStore) begin(ctx context.Context, op string, attrs ...trace.Attr) (context.Context, func(err error)) {
	ctx, end := trace.Region(ctx, "store."+op, attrs...)
	if is.timeout <= 0 {
		return ctx, func(err error) { is.obs(op, end(err), err) }
	}
	ctx, cancel := context.WithTimeout(ctx, is.timeout)
	return ctx, func(err error) { is.obs(op, end(err), err); cancel() }
}

func (is *instrumentedStore) Stat(ctx context.Context, p string) (ResourceInfo, error) {
	ctx, done := is.begin(ctx, "stat", trace.Str("path", p))
	ri, err := is.s.Stat(ctx, p)
	done(err)
	return ri, err
}

func (is *instrumentedStore) List(ctx context.Context, p string) ([]ResourceInfo, error) {
	ctx, done := is.begin(ctx, "list", trace.Str("path", p))
	members, err := is.s.List(ctx, p)
	done(err)
	return members, err
}

func (is *instrumentedStore) Mkcol(ctx context.Context, p string) error {
	ctx, done := is.begin(ctx, "mkcol", trace.Str("path", p))
	err := is.s.Mkcol(ctx, p)
	done(err)
	return err
}

func (is *instrumentedStore) Put(ctx context.Context, p string, r io.Reader, contentType string) (bool, error) {
	ctx, done := is.begin(ctx, "put", trace.Str("path", p))
	created, err := is.s.Put(ctx, p, r, contentType)
	done(err)
	return created, err
}

// Get ties the deadline's release to the reader's Close rather than to
// the open, so the body can stream past the deadline.
func (is *instrumentedStore) Get(ctx context.Context, p string) (io.ReadCloser, ResourceInfo, error) {
	ctx, end := trace.Region(ctx, "store.get", trace.Str("path", p))
	var cancel context.CancelFunc
	if is.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, is.timeout)
	}
	rc, ri, err := is.s.Get(ctx, p)
	is.obs("get", end(err), err)
	if cancel != nil {
		if err != nil {
			cancel()
			return nil, ri, err
		}
		rc = &cancelReadCloser{ReadCloser: rc, cancel: cancel}
	}
	return rc, ri, err
}

// cancelReadCloser releases Get's deadline when the reader closes.
type cancelReadCloser struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelReadCloser) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

func (is *instrumentedStore) Delete(ctx context.Context, p string) error {
	ctx, done := is.begin(ctx, "delete", trace.Str("path", p))
	err := is.s.Delete(ctx, p)
	done(err)
	return err
}

func (is *instrumentedStore) PropPut(ctx context.Context, p string, name xml.Name, value []byte) error {
	ctx, done := is.begin(ctx, "prop_put", trace.Str("path", p), trace.Int("bytes", int64(len(value))))
	err := is.s.PropPut(ctx, p, name, value)
	done(err)
	return err
}

func (is *instrumentedStore) PropGet(ctx context.Context, p string, name xml.Name) ([]byte, bool, error) {
	ctx, done := is.begin(ctx, "prop_get", trace.Str("path", p))
	v, ok, err := is.s.PropGet(ctx, p, name)
	done(err)
	return v, ok, err
}

func (is *instrumentedStore) PropDelete(ctx context.Context, p string, name xml.Name) error {
	ctx, done := is.begin(ctx, "prop_delete", trace.Str("path", p))
	err := is.s.PropDelete(ctx, p, name)
	done(err)
	return err
}

func (is *instrumentedStore) PropNames(ctx context.Context, p string) ([]xml.Name, error) {
	ctx, done := is.begin(ctx, "prop_names", trace.Str("path", p))
	names, err := is.s.PropNames(ctx, p)
	done(err)
	return names, err
}

func (is *instrumentedStore) PropAll(ctx context.Context, p string) (map[xml.Name][]byte, error) {
	ctx, done := is.begin(ctx, "prop_all", trace.Str("path", p))
	props, err := is.s.PropAll(ctx, p)
	done(err)
	return props, err
}

func (is *instrumentedStore) StatWithProps(ctx context.Context, p string, want []xml.Name) (ResourceInfo, map[xml.Name][]byte, error) {
	ctx, done := is.begin(ctx, "stat_with_props", trace.Str("path", p))
	ri, props, err := is.s.StatWithProps(ctx, p, want)
	done(err)
	return ri, props, err
}

func (is *instrumentedStore) ListWithProps(ctx context.Context, p string, want []xml.Name) ([]MemberProps, error) {
	ctx, done := is.begin(ctx, "list_with_props", trace.Str("path", p))
	members, err := is.s.ListWithProps(ctx, p, want)
	done(err)
	return members, err
}

func (is *instrumentedStore) Close() error {
	start := time.Now()
	err := is.s.Close()
	is.obs("close", time.Since(start), err)
	return err
}

// CopyTree runs the whole copy under one span and one deadline: it is
// one store operation.
func (is *instrumentedStore) CopyTree(ctx context.Context, src, dst string, opts CopyOptions) error {
	ctx, done := is.begin(ctx, "copy_tree", trace.Str("src", src), trace.Str("dst", dst))
	err := is.s.CopyTree(ctx, src, dst, opts)
	done(err)
	return err
}

func (is *instrumentedStore) Rename(ctx context.Context, src, dst string) error {
	ctx, done := is.begin(ctx, "rename", trace.Str("src", src), trace.Str("dst", dst))
	err := is.s.Rename(ctx, src, dst)
	done(err)
	return err
}

// Unwrap exposes the wrapped store (tests, tooling).
func (is *instrumentedStore) Unwrap() Store { return is.s }
