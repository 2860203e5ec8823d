package main

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"net/url"
	"path"
	"sort"
	"sync"

	"repro/internal/davproto"
)

// propNS is the namespace of every dead property the workloads write.
const propNS = "ecce:"

// propName returns the i'th generated property name.
func propName(i int) xml.Name {
	return xml.Name{Space: propNS, Local: fmt.Sprintf("p%02d", i)}
}

// Value kinds mixed into the generator so a body and a property of the
// same document and version never share bytes.
const (
	kindProp = 1
	kindBody = 2
)

// alphabet keeps generated values free of XML escapes and whitespace,
// so a value round-trips through PROPPATCH and PROPFIND byte for byte.
const alphabet = "abcdefghijklmnopqrstuvwxyz012345"

// genValue derives n bytes from (seed, kind, doc, slot, version) with
// splitmix64: the model stores version numbers only and regenerates a
// value whenever it needs to send or check one.
func genValue(seed int64, kind, doc, slot int, ver uint32, n int) []byte {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(kind)<<56 ^ uint64(doc)<<32 ^ uint64(slot)<<20 ^ uint64(ver)
	out := make([]byte, n)
	for i := 0; i < n; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < n; j++ {
			out[i+j] = alphabet[z&31]
			z >>= 5
		}
	}
	return out
}

// versions tracks one value written by a single owner: committed is the
// last version the server acknowledged, started the last one sent. A
// concurrent reader may see any version in [committed at request start,
// started at response end].
type versions struct{ committed, started uint32 }

// doc is the model of one document: its body and property versions.
type doc struct {
	id    int
	path  string
	body  versions
	props []versions
}

// model is the load generator's record of every current value. Each
// document has one writer, so versions only grow; the mutex orders the
// writer's updates against other clients' read windows.
type model struct {
	seed       int64
	valueBytes int
	bodyBytes  int

	mu   sync.Mutex
	docs []*doc
}

func newModel(seed int64, valueBytes, bodyBytes int) *model {
	return &model{seed: seed, valueBytes: valueBytes, bodyBytes: bodyBytes}
}

// add registers a document with nprops properties at version 0.
func (m *model) add(p string, nprops int) *doc {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := &doc{id: len(m.docs), path: p, props: make([]versions, nprops)}
	m.docs = append(m.docs, d)
	return d
}

func (m *model) propValue(d *doc, i int, ver uint32) []byte {
	return genValue(m.seed, kindProp, d.id, i, ver, m.valueBytes)
}

func (m *model) bodyValue(d *doc, ver uint32) []byte {
	return genValue(m.seed, kindBody, d.id, 0, ver, m.bodyBytes)
}

// liveBytes is the payload the store must hold: every body and every
// property value, as the model knows them.
func (m *model) liveBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, d := range m.docs {
		n += int64(m.bodyBytes) + int64(len(d.props)*m.valueBytes)
	}
	return n
}

// beginProps reserves the next version of the given properties and
// returns the values to send.
func (m *model) beginProps(d *doc, idx []int) []davproto.Property {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]davproto.Property, len(idx))
	for k, i := range idx {
		d.props[i].started++
		n := propName(i)
		out[k] = davproto.NewTextProperty(n.Space, n.Local, string(m.propValue(d, i, d.props[i].started)))
	}
	return out
}

// commitProps records that the server acknowledged the reserved
// versions.
func (m *model) commitProps(d *doc, idx []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, i := range idx {
		d.props[i].committed = d.props[i].started
	}
}

// beginBody reserves the next body version and returns its bytes.
func (m *model) beginBody(d *doc) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	d.body.started++
	return m.bodyValue(d, d.body.started)
}

func (m *model) commitBody(d *doc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d.body.committed = d.body.started
}

// window records, per property, the versions a read may legitimately
// return: the committed version when the request was sent through the
// newest version started before the response arrived.
type window struct {
	m    *model
	docs map[string]*doc // keyed by the path the server will report
	idx  []int
	lo   map[*doc][]uint32
}

// openWindow snapshots the lower bounds for properties idx of docs,
// which the server will report under the given paths (a copy's paths
// map onto the documents it was copied from).
func (m *model) openWindow(paths map[string]*doc, idx []int) *window {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &window{m: m, docs: paths, idx: idx, lo: map[*doc][]uint32{}}
	for _, d := range paths {
		lo := make([]uint32, len(idx))
		for k, i := range idx {
			lo[k] = d.props[i].committed
		}
		w.lo[d] = lo
	}
	return w
}

// check verifies a multistatus against the model: one response per
// expected path plus, when coll is non-empty, one for the collection
// itself (whose requested dead properties must come back 404), and
// every returned value equal to a version the window allows.
func (w *window) check(ms davproto.Multistatus, coll string) error {
	want := len(w.docs)
	if coll != "" {
		want++
	}
	if len(ms.Responses) != want {
		return fmt.Errorf("multistatus has %d responses, want %d", len(ms.Responses), want)
	}
	w.m.mu.Lock()
	hi := map[*doc][]uint32{}
	for _, d := range w.docs {
		h := make([]uint32, len(w.idx))
		for k, i := range w.idx {
			h[k] = d.props[i].started
		}
		hi[d] = h
	}
	w.m.mu.Unlock()
	seen := map[string]bool{}
	for _, r := range ms.Responses {
		p, err := hrefPath(r.Href)
		if err != nil {
			return err
		}
		if seen[p] {
			return fmt.Errorf("duplicate response for %s", p)
		}
		seen[p] = true
		if coll != "" && p == coll {
			if got := davproto.PropsByName(r.Propstats); len(got) > 0 {
				for n := range got {
					if n.Space == propNS {
						return fmt.Errorf("%s: collection reports dead property %s", p, n.Local)
					}
				}
			}
			continue
		}
		d, ok := w.docs[p]
		if !ok {
			return fmt.Errorf("unexpected response for %s", p)
		}
		got := davproto.PropsByName(r.Propstats)
		for k, i := range w.idx {
			n := propName(i)
			prop, ok := got[n]
			if !ok {
				return fmt.Errorf("%s: property %s missing", p, n.Local)
			}
			if err := w.m.matchProp(d, i, w.lo[d][k], hi[d][k], prop.Text()); err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
		}
	}
	return nil
}

// matchProp accepts text if it is the value of any version in [lo, hi].
func (m *model) matchProp(d *doc, i int, lo, hi uint32, text string) error {
	for v := lo; v <= hi; v++ {
		if string(m.propValue(d, i, v)) == text {
			return nil
		}
	}
	return fmt.Errorf("property %s holds a value no version in [%d,%d] wrote", propName(i).Local, lo, hi)
}

// bodyLo returns the oldest body version a GET sent now may return.
func (m *model) bodyLo(d *doc) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return d.body.committed
}

// checkBody accepts body if it is the value of any version the read
// window allows.
func (m *model) checkBody(d *doc, lo uint32, body []byte) error {
	m.mu.Lock()
	hi := d.body.started
	m.mu.Unlock()
	for v := lo; v <= hi; v++ {
		if bytes.Equal(m.bodyValue(d, v), body) {
			return nil
		}
	}
	return fmt.Errorf("%s: body is no version in [%d,%d]", d.path, lo, hi)
}

// hrefPath decodes a multistatus href to a clean absolute path.
func hrefPath(href string) (string, error) {
	u, err := url.Parse(href)
	if err != nil {
		return "", fmt.Errorf("bad href %q: %w", href, err)
	}
	p := path.Clean(u.Path)
	if p == "." {
		p = "/"
	}
	return p, nil
}

// allIndexes returns 0..n-1.
func allIndexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// pickIndexes returns k distinct sorted indexes from 0..n-1.
func pickIndexes(r *rand.Rand, n, k int) []int {
	out := append([]int(nil), r.Perm(n)[:k]...)
	sort.Ints(out)
	return out
}
