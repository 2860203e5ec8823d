package davserver

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dbm"
	"repro/internal/store"
	"repro/internal/store/fsck"
)

// TestClientDisconnectMidPutRollsBackCleanly is the end-to-end
// cancellation smoke test: a client opens a PUT over live HTTP and
// drops the connection while the store operation is between its journal
// intent and the decisive rename. The server must classify the failure
// as a client abort (dav_store_cancelled_total{reason="client"}), the
// store must roll the half-done PUT back inline, and a subsequent fsck
// must find nothing — the same guarantee the crash matrix proves for
// kill -9, here proven for the much more common "user closed the
// laptop" case.
func TestClientDisconnectMidPutRollsBackCleanly(t *testing.T) {
	dir := t.TempDir()

	// The step hook parks the PUT at the put.intent boundary until the
	// server-side request context reports the disconnect, so the
	// checkpoint that follows the hook deterministically observes it.
	var reqCtx atomic.Value // of context.Context
	reached := make(chan struct{})
	s, err := store.NewFSStoreWith(dir, dbm.GDBM, store.FSOptions{
		StepHook: func(p string) {
			if p != "put.intent" {
				return
			}
			close(reached)
			if c, ok := reqCtx.Load().(context.Context); ok {
				<-c.Done()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(s, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqCtx.Store(r.Context())
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	before := storeCancelledClient.Load()

	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, "PUT", srv.URL+"/doc.txt", strings.NewReader("abandoned"))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	<-reached
	cancel() // the client disconnects mid-operation
	if err := <-errc; err == nil {
		t.Fatal("client request completed despite the disconnect")
	}

	// The server finishes the abandoned request asynchronously; wait
	// for the abort counter rather than sleeping.
	deadline := time.Now().Add(5 * time.Second)
	for storeCancelledClient.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("dav_store_cancelled_total{reason=\"client\"} never incremented")
		}
		time.Sleep(time.Millisecond)
	}

	// The cancelled PUT was creating /doc.txt; the rollback must leave
	// no trace of it.
	if _, err := s.Stat(context.Background(), "/doc.txt"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Stat after cancelled PUT: err=%v, want ErrNotFound", err)
	}

	srv.Close()
	s.Close()
	rep, err := fsck.Check(dir, dbm.GDBM)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck findings after client disconnect:\n%v", rep.Findings)
	}
}

// TestDeadlineExceededMaps503RetryAfter pins the other half of the
// error split: a store operation that outlives the server's per-op
// deadline must surface as 503 with Retry-After (a server problem the
// client should retry), not as a client abort.
func TestDeadlineExceededMaps503RetryAfter(t *testing.T) {
	dir := t.TempDir()
	s, err := store.NewFSStoreWith(dir, dbm.GDBM, store.FSOptions{
		StepHook: func(p string) {
			if p == "put.staged" {
				// Outlive the 10ms op deadline below.
				time.Sleep(50 * time.Millisecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := NewHandler(store.Instrument(s, nil, 10*time.Millisecond), nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	before := storeCancelledDeadline.Load()
	resp := do(t, "PUT", srv.URL+"/slow.txt", nil, "body")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 from an op deadline carries no Retry-After")
	}
	if storeCancelledDeadline.Load() == before {
		t.Fatal("dav_store_cancelled_total{reason=\"deadline\"} not incremented")
	}
}
