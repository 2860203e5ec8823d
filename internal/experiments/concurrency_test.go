package experiments

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

// propAllCounter counts the PropAll calls that reach the wrapped store.
type propAllCounter struct {
	store.Store
	calls atomic.Int64
}

func (c *propAllCounter) PropAll(ctx context.Context, p string) (map[xml.Name][]byte, error) {
	c.calls.Add(1)
	return c.Store.PropAll(ctx, p)
}

// TestSerializedStoreParity checks the benchmark baseline behaves like
// a plain store (same data, same properties) while keeping the PR 3
// read shape: a collection listing costs one PropAll per member.
func TestSerializedStoreParity(t *testing.T) {
	counted := &propAllCounter{Store: store.NewMemStore()}
	ss := serialize(counted)
	ctx := context.Background()
	for _, p := range []string{"/m1", "/m2", "/m3"} {
		if _, err := ss.Put(ctx, p, strings.NewReader("x"), ""); err != nil {
			t.Fatal(err)
		}
	}
	counted.calls.Store(0)
	members, err := ss.ListWithProps(ctx, "/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := counted.calls.Load(); len(members) != 3 || got != 3 {
		t.Fatalf("ListWithProps over %d members issued %d PropAll calls, want 3 and 3", len(members), got)
	}

	env, err := StartDAVEnv(DAVEnvOptions{Serialized: true, HandleCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	if created, err := env.Client.PutBytes("/a.txt", []byte("hello"), "text/plain"); err != nil || !created {
		t.Fatalf("put: created=%v err=%v", created, err)
	}
	body, err := env.Client.Get("/a.txt")
	if err != nil || string(body) != "hello" {
		t.Fatalf("get: %q, %v", body, err)
	}
	ms, err := env.Client.PropFindAll("/", 1)
	if err != nil || len(ms.Responses) != 2 {
		t.Fatalf("propfind: %d responses, %v", len(ms.Responses), err)
	}
}

// TestBenchPR4Small runs the concurrency benchmark at tiny sizes and
// round-trips the result through its JSON schema validator, minus the
// timing-sensitive speedup assertion.
func TestBenchPR4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four servers")
	}
	res, err := RunBenchPR4(BenchPR4Options{
		OpsPerWorker:  4,
		Workers:       []int{1, 2},
		SharedMembers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != BenchPR4Schema {
		t.Fatalf("schema %q", res.Schema)
	}
	if len(res.Archs) != 2 {
		t.Fatalf("archs: %d", len(res.Archs))
	}
	for _, a := range res.Archs {
		if len(a.Cells) != 2 {
			t.Fatalf("%s: %d cells", a.Name, len(a.Cells))
		}
		for _, c := range a.Cells {
			if c.Ops != c.Workers*4 || c.OpsPerSec <= 0 {
				t.Fatalf("%s cell %+v", a.Name, c)
			}
		}
	}
	// The concurrent run must show the new stack actually engaged.
	if res.Concurrency.LockAcquisitions == 0 {
		t.Fatal("no path-lock acquisitions recorded")
	}
	if res.Concurrency.CacheHits == 0 {
		t.Fatal("no handle-cache hits recorded")
	}

	// Everything except the speedup threshold must validate; at these
	// sizes the timing comparison is noise, so only accept that exact
	// complaint.
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBenchPR4(data); err != nil && res.SpeedupParallel > 1 {
		t.Fatalf("validator rejected a speedup-bearing result: %v", err)
	}
}
