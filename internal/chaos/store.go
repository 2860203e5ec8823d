package chaos

import (
	"context"
	"encoding/xml"
	"errors"
	"io"
	"math/rand"
	"sync"

	"repro/internal/store"
)

// ErrInjected is the storage failure surfaced by FaultyStore.
var ErrInjected = errors.New("chaos: injected storage failure")

// Store operation names accepted by FaultyStore arming calls.
const (
	OpStat       = "Stat"
	OpList       = "List"
	OpMkcol      = "Mkcol"
	OpPut        = "Put"
	OpGet        = "Get"
	OpDelete     = "Delete"
	OpPropPut    = "PropPut"
	OpPropGet    = "PropGet"
	OpPropDelete = "PropDelete"
	OpPropNames  = "PropNames"
	OpPropAll    = "PropAll"

	OpStatWithProps = "StatWithProps"
	OpListWithProps = "ListWithProps"
	OpCopyTree      = "CopyTree"
	OpRename        = "Rename"
)

// trigger is one armed fault on a store operation.
type trigger struct {
	nth   int64 // fail the nth call from arming (1-based); 0 = disabled
	all   bool  // fail every call
	rate  float64
	rng   *rand.Rand
	calls int64
}

func (tr *trigger) fires() bool {
	tr.calls++
	if tr.all {
		return true
	}
	if tr.nth > 0 && tr.calls == tr.nth {
		return true
	}
	return tr.rate > 0 && tr.rng.Float64() < tr.rate
}

// FaultyStore wraps a store.Store and fails selected operations on
// demand — the storage-layer arm of the chaos harness, generalizing
// the ad-hoc test doubles the server's rollback tests began with. The
// zero set of triggers passes everything through.
type FaultyStore struct {
	store.Store

	mu       sync.Mutex
	triggers map[string]*trigger
	faults   int64
}

// NewFaultyStore wraps s with no faults armed.
func NewFaultyStore(s store.Store) *FaultyStore {
	return &FaultyStore{Store: s, triggers: map[string]*trigger{}}
}

// FailNth arms op to fail on its nth call from now (1-based).
func (f *FaultyStore) FailNth(op string, n int) {
	f.arm(op, &trigger{nth: int64(n)})
}

// FailAll arms op to fail on every call until Clear.
func (f *FaultyStore) FailAll(op string) {
	f.arm(op, &trigger{all: true})
}

// FailRate arms op to fail with the given seeded probability per call.
func (f *FaultyStore) FailRate(op string, rate float64, seed int64) {
	f.arm(op, &trigger{rate: rate, rng: rand.New(rand.NewSource(seed))})
}

// Clear disarms op.
func (f *FaultyStore) Clear(op string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.triggers, op)
}

// Faults reports how many operations have been failed.
func (f *FaultyStore) Faults() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

func (f *FaultyStore) arm(op string, tr *trigger) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.triggers[op] = tr
}

// fail reports whether the next call to op should fail.
func (f *FaultyStore) fail(op string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	tr, ok := f.triggers[op]
	if !ok || !tr.fires() {
		return false
	}
	f.faults++
	return true
}

// Stat implements store.Store.
func (f *FaultyStore) Stat(ctx context.Context, p string) (store.ResourceInfo, error) {
	if f.fail(OpStat) {
		return store.ResourceInfo{}, ErrInjected
	}
	return f.Store.Stat(ctx, p)
}

// List implements store.Store.
func (f *FaultyStore) List(ctx context.Context, p string) ([]store.ResourceInfo, error) {
	if f.fail(OpList) {
		return nil, ErrInjected
	}
	return f.Store.List(ctx, p)
}

// Mkcol implements store.Store.
func (f *FaultyStore) Mkcol(ctx context.Context, p string) error {
	if f.fail(OpMkcol) {
		return ErrInjected
	}
	return f.Store.Mkcol(ctx, p)
}

// Put implements store.Store.
func (f *FaultyStore) Put(ctx context.Context, p string, r io.Reader, contentType string) (bool, error) {
	if f.fail(OpPut) {
		return false, ErrInjected
	}
	return f.Store.Put(ctx, p, r, contentType)
}

// Get implements store.Store.
func (f *FaultyStore) Get(ctx context.Context, p string) (io.ReadCloser, store.ResourceInfo, error) {
	if f.fail(OpGet) {
		return nil, store.ResourceInfo{}, ErrInjected
	}
	return f.Store.Get(ctx, p)
}

// Delete implements store.Store.
func (f *FaultyStore) Delete(ctx context.Context, p string) error {
	if f.fail(OpDelete) {
		return ErrInjected
	}
	return f.Store.Delete(ctx, p)
}

// PropPut implements store.Store.
func (f *FaultyStore) PropPut(ctx context.Context, p string, name xml.Name, value []byte) error {
	if f.fail(OpPropPut) {
		return ErrInjected
	}
	return f.Store.PropPut(ctx, p, name, value)
}

// PropGet implements store.Store.
func (f *FaultyStore) PropGet(ctx context.Context, p string, name xml.Name) ([]byte, bool, error) {
	if f.fail(OpPropGet) {
		return nil, false, ErrInjected
	}
	return f.Store.PropGet(ctx, p, name)
}

// PropDelete implements store.Store.
func (f *FaultyStore) PropDelete(ctx context.Context, p string, name xml.Name) error {
	if f.fail(OpPropDelete) {
		return ErrInjected
	}
	return f.Store.PropDelete(ctx, p, name)
}

// PropNames implements store.Store.
func (f *FaultyStore) PropNames(ctx context.Context, p string) ([]xml.Name, error) {
	if f.fail(OpPropNames) {
		return nil, ErrInjected
	}
	return f.Store.PropNames(ctx, p)
}

// PropAll implements store.Store.
func (f *FaultyStore) PropAll(ctx context.Context, p string) (map[xml.Name][]byte, error) {
	if f.fail(OpPropAll) {
		return nil, ErrInjected
	}
	return f.Store.PropAll(ctx, p)
}

// StatWithProps implements store.Store.
func (f *FaultyStore) StatWithProps(ctx context.Context, p string, want []xml.Name) (store.ResourceInfo, map[xml.Name][]byte, error) {
	if f.fail(OpStatWithProps) {
		return store.ResourceInfo{}, nil, ErrInjected
	}
	return f.Store.StatWithProps(ctx, p, want)
}

// ListWithProps implements store.Store.
func (f *FaultyStore) ListWithProps(ctx context.Context, p string, want []xml.Name) ([]store.MemberProps, error) {
	if f.fail(OpListWithProps) {
		return nil, ErrInjected
	}
	return f.Store.ListWithProps(ctx, p, want)
}

// CopyTree implements store.Store.
func (f *FaultyStore) CopyTree(ctx context.Context, src, dst string, opts store.CopyOptions) error {
	if f.fail(OpCopyTree) {
		return ErrInjected
	}
	return f.Store.CopyTree(ctx, src, dst, opts)
}

// Rename implements store.Store.
func (f *FaultyStore) Rename(ctx context.Context, src, dst string) error {
	if f.fail(OpRename) {
		return ErrInjected
	}
	return f.Store.Rename(ctx, src, dst)
}
