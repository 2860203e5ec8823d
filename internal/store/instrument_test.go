package store

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dbm"
)

// opRecorder collects observed operations.
type opRecorder struct {
	mu   sync.Mutex
	ops  []string
	errs map[string]int
}

func newOpRecorder() *opRecorder { return &opRecorder{errs: map[string]int{}} }

func (r *opRecorder) observe(op string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d < 0 {
		panic("negative duration")
	}
	r.ops = append(r.ops, op)
	if err != nil {
		r.errs[op]++
	}
}

func (r *opRecorder) count(op string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, o := range r.ops {
		if o == op {
			n++
		}
	}
	return n
}

func TestInstrumentObservesOpsAndErrors(t *testing.T) {
	rec := newOpRecorder()
	s := Instrument(NewMemStore(), rec.observe, 0)

	if _, err := s.Put(context.Background(), "/doc", strings.NewReader("hello"), "text/plain"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat(context.Background(), "/doc"); err != nil {
		t.Fatal(err)
	}
	rc, _, err := s.Get(context.Background(), "/doc")
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if err := s.Mkcol(context.Background(), "/col"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List(context.Background(), "/"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat(context.Background(), "/missing"); err == nil {
		t.Fatal("expected ErrNotFound")
	}

	for op, want := range map[string]int{"put": 1, "stat": 2, "get": 1, "mkcol": 1, "list": 1} {
		if got := rec.count(op); got != want {
			t.Errorf("op %q observed %d times, want %d", op, got, want)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.errs["stat"] != 1 {
		t.Errorf("stat errors = %d, want 1", rec.errs["stat"])
	}
}

func TestInstrumentNilObserverIsPassThrough(t *testing.T) {
	ms := NewMemStore()
	if got := Instrument(ms, nil, 0); got != Store(ms) {
		t.Fatal("nil observer and no deadline should return the store unchanged")
	}
	if got := Instrument(ms, nil, time.Second); got == Store(ms) {
		t.Fatal("a deadline needs the wrapper even without an observer")
	}
}

func TestInstrumentRenameFallback(t *testing.T) {
	// A Rename failing for a non-precondition reason: MoveTree through
	// the wrapper must fall back to copy+delete rather than fail, and
	// every step is observed.
	rec := newOpRecorder()
	s := Instrument(&failingRenamer{Store: NewMemStore(), err: errors.New("rename: cross-device link")}, rec.observe, 0)
	if _, err := s.Put(context.Background(), "/src", strings.NewReader("body"), ""); err != nil {
		t.Fatal(err)
	}
	if err := MoveTree(context.Background(), s, "/src", "/dst"); err != nil {
		t.Fatalf("MoveTree through instrumented store: %v", err)
	}
	if _, err := s.Stat(context.Background(), "/dst"); err != nil {
		t.Fatalf("dst missing after move: %v", err)
	}
	if _, err := s.Stat(context.Background(), "/src"); err == nil {
		t.Fatal("src still exists after move")
	}
	for op, want := range map[string]int{"rename": 1, "copy_tree": 1, "delete": 1} {
		if got := rec.count(op); got != want {
			t.Errorf("op %q observed %d times, want %d", op, got, want)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.errs["rename"] != 1 {
		t.Errorf("rename errors = %d, want 1", rec.errs["rename"])
	}
}

func TestInstrumentRenameDelegates(t *testing.T) {
	// Both built-in stores rename natively; the wrapper must use and
	// observe it, with no copy behind it.
	eachStore(t, func(t *testing.T, inner Store) {
		rec := newOpRecorder()
		s := Instrument(inner, rec.observe, 0)
		if _, err := s.Put(context.Background(), "/src", strings.NewReader("body"), ""); err != nil {
			t.Fatal(err)
		}
		if err := MoveTree(context.Background(), s, "/src", "/dst"); err != nil {
			t.Fatal(err)
		}
		if rec.count("rename") != 1 || rec.count("copy_tree") != 0 {
			t.Errorf("rename observed %d times, copy_tree %d; want 1 and 0",
				rec.count("rename"), rec.count("copy_tree"))
		}
	})
}

// deadlineProbe records the context each Stat and Get runs under.
type deadlineProbe struct {
	Store
	mu   sync.Mutex
	ctxs []context.Context
}

func (d *deadlineProbe) record(ctx context.Context) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ctxs = append(d.ctxs, ctx)
}

func (d *deadlineProbe) Stat(ctx context.Context, p string) (ResourceInfo, error) {
	d.record(ctx)
	return d.Store.Stat(ctx, p)
}

func (d *deadlineProbe) Get(ctx context.Context, p string) (io.ReadCloser, ResourceInfo, error) {
	d.record(ctx)
	return d.Store.Get(ctx, p)
}

func TestInstrumentDeadlineFreshPerCall(t *testing.T) {
	const budget = time.Minute
	probe := &deadlineProbe{Store: NewMemStore()}
	s := Instrument(probe, nil, budget)
	start := time.Now()
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(20 * time.Millisecond)
		}
		if _, err := s.Stat(context.Background(), "/"); err != nil {
			t.Fatal(err)
		}
	}
	first, ok1 := probe.ctxs[0].Deadline()
	second, ok2 := probe.ctxs[1].Deadline()
	if !ok1 || !ok2 {
		t.Fatal("store calls ran without the per-op deadline")
	}
	if first.Before(start) || first.After(time.Now().Add(budget)) {
		t.Fatalf("deadline %v not within the %s budget from %v", first, budget, start)
	}
	if second.Sub(first) < 20*time.Millisecond {
		t.Fatalf("second call's deadline %v is not a fresh budget after the first's %v", second, first)
	}
	// The deadline is released when each call returns.
	for i, ctx := range probe.ctxs {
		if ctx.Err() == nil {
			t.Errorf("call %d's deadline context still live after return", i)
		}
	}
}

func TestInstrumentGetReaderOutlivesDeadline(t *testing.T) {
	fs, err := NewFSStore(t.TempDir(), dbm.GDBM)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	mustPut(t, fs, "/doc", "streamed body")
	probe := &deadlineProbe{Store: fs}

	// The body streams after the deadline has passed. The budget is
	// wide enough that opening the document cannot miss it; the test
	// then waits for the deadline itself before reading.
	s := Instrument(probe, nil, 500*time.Millisecond)
	rc, _, err := s.Get(context.Background(), "/doc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := probe.ctxs[len(probe.ctxs)-1]
	<-ctx.Done()
	if ctx.Err() != context.DeadlineExceeded {
		t.Fatalf("Get's context ended with %v, want the deadline", ctx.Err())
	}
	body, err := io.ReadAll(rc)
	if err != nil || string(body) != "streamed body" {
		t.Fatalf("read after deadline = (%q, %v)", body, err)
	}
	rc.Close()

	// The deadline is released by Close, not by returning from Get.
	s = Instrument(probe, nil, time.Minute)
	rc, _, err = s.Get(context.Background(), "/doc")
	if err != nil {
		t.Fatal(err)
	}
	ctx = probe.ctxs[len(probe.ctxs)-1]
	if ctx.Err() != nil {
		t.Fatalf("Get's context ended before the reader closed: %v", ctx.Err())
	}
	rc.Close()
	if ctx.Err() == nil {
		t.Fatal("Get's deadline not released on Close")
	}
}

func TestInstrumentZeroTimeoutDisablesDeadline(t *testing.T) {
	probe := &deadlineProbe{Store: NewMemStore()}
	mustPut(t, probe, "/doc", "x")
	s := Instrument(probe, newOpRecorder().observe, 0)
	if _, err := s.Stat(context.Background(), "/doc"); err != nil {
		t.Fatal(err)
	}
	rc, _, err := s.Get(context.Background(), "/doc")
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	for i, ctx := range probe.ctxs {
		if _, ok := ctx.Deadline(); ok {
			t.Errorf("call %d ran under a deadline with opTimeout 0", i)
		}
	}
}
