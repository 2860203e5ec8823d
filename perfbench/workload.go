package main

import (
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/davclient"
	"repro/internal/davproto"
)

// sizes fixes a workload's tree shape.
type sizes struct {
	Docs       int // meta-read/tree-copy: documents under /data
	Props      int // properties per document
	ValueBytes int // bytes per property value
	BodyBytes  int // bytes per document body
	Colls      int // meta-write: collections
	CollDocs   int // meta-write: documents per collection
	Clients    int // closed-loop callers
	Selected   int // properties per selected PROPFIND
	WarmLoops  int // untimed loops per client after population
}

// fullSizes are the shapes the benchmark measures.
var fullSizes = map[string]sizes{
	// Table 1 of the paper: 50 documents x 50 properties x 1 KB.
	"meta-read": {Docs: 50, Props: 50, ValueBytes: 1024, BodyBytes: 64, Clients: 1, Selected: 5, WarmLoops: 2},
	// 1,024 documents x 20 properties: about 4x the davd handle cache.
	"meta-write": {Props: 20, ValueBytes: 1024, BodyBytes: 4096, Colls: 16, CollDocs: 64, Clients: 2, Selected: 5, WarmLoops: 10},
	"tree-copy":  {Docs: 50, Props: 50, ValueBytes: 1024, BodyBytes: 64, Clients: 1, Selected: 5, WarmLoops: 2},
}

// tinySizes keep the benchmark's own tests fast.
var tinySizes = map[string]sizes{
	"meta-read":  {Docs: 4, Props: 6, ValueBytes: 64, BodyBytes: 16, Clients: 1, Selected: 2, WarmLoops: 1},
	"meta-write": {Props: 6, ValueBytes: 64, BodyBytes: 64, Colls: 4, CollDocs: 4, Clients: 2, Selected: 2, WarmLoops: 1},
	"tree-copy":  {Docs: 4, Props: 6, ValueBytes: 64, BodyBytes: 16, Clients: 1, Selected: 2, WarmLoops: 1},
}

// workload is one traffic mix over one tree.
type workload interface {
	// populate builds the tree through the clients.
	populate(cs []*client) error
	// loop runs one closed-loop iteration for client k. Op failures are
	// recorded by the client; the returned error is a failed output
	// check.
	loop(c *client, k int) error
	// replayTarget names a collection whose Depth 1 answer the parse
	// layers are replayed on, and the responses it holds.
	replayTarget() (coll string, responses int)
}

func newWorkload(name string, sz sizes, m *model) (workload, error) {
	switch name {
	case "meta-read":
		return &metaRead{sz: sz, m: m}, nil
	case "meta-write":
		return &metaWrite{sz: sz, m: m}, nil
	case "tree-copy":
		return &treeCopy{metaRead: metaRead{sz: sz, m: m}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want meta-read, meta-write or tree-copy)", name)
}

// errCheck wraps a failed output check so it is told apart from a
// failed request.
type errCheck struct{ err error }

func (e errCheck) Error() string { return "check failed: " + e.err.Error() }

func checkf(format string, args ...any) error {
	return errCheck{fmt.Errorf(format, args...)}
}

// names maps property indexes to their names.
func names(idx []int) []xml.Name {
	out := make([]xml.Name, len(idx))
	for k, i := range idx {
		out[k] = propName(i)
	}
	return out
}

// createDoc PUTs a document's first body and PROPPATCHes all of its
// properties in one request, as a client priming the store would.
func createDoc(c *client, m *model, d *doc) error {
	body := m.beginBody(d)
	if err := c.do("put", func(dc *davclient.Client) error {
		_, err := dc.PutBytes(d.path, body, "application/octet-stream")
		return err
	}); err != nil {
		return err
	}
	m.commitBody(d)
	all := allIndexes(len(d.props))
	props := m.beginProps(d, all)
	if err := c.do("proppatch", func(dc *davclient.Client) error { return dc.SetProps(d.path, props...) }); err != nil {
		return err
	}
	m.commitProps(d, all)
	return nil
}

// metaRead is Table 1's read path: (a) allprop on a random document,
// (b) selected properties of every document one at a time, and (c) the
// same properties of all documents in one Depth 1 request.
type metaRead struct {
	sz   sizes
	m    *model
	docs []*doc
}

func (w *metaRead) populate(cs []*client) error {
	c := cs[0]
	if err := c.do("mkcol", func(dc *davclient.Client) error { return dc.Mkcol("/data") }); err != nil {
		return err
	}
	for i := 0; i < w.sz.Docs; i++ {
		d := w.m.add(fmt.Sprintf("/data/doc%02d", i), w.sz.Props)
		w.docs = append(w.docs, d)
		if err := createDoc(c, w.m, d); err != nil {
			return err
		}
	}
	return nil
}

func (w *metaRead) replayTarget() (string, int) { return "/data", len(w.docs) + 1 }

func (w *metaRead) loop(c *client, _ int) error {
	d := w.docs[c.rnd.Intn(len(w.docs))]
	if err := propfindCheck(c, "propfind_allprop", d.path, "", davproto.Depth0, nil,
		w.m.openWindow(map[string]*doc{d.path: d}, allIndexes(w.sz.Props))); err != nil {
		return err
	}
	idx := pickIndexes(c.rnd, w.sz.Props, w.sz.Selected)
	for _, d := range w.docs {
		if err := propfindCheck(c, "propfind_selected", d.path, "", davproto.Depth0, idx,
			w.m.openWindow(map[string]*doc{d.path: d}, idx)); err != nil {
			return err
		}
	}
	all := map[string]*doc{}
	for _, d := range w.docs {
		all[d.path] = d
	}
	return propfindCheck(c, "propfind_depth1", "/data", "/data", davproto.Depth1, idx, w.m.openWindow(all, idx))
}

// propfindCheck issues a PROPFIND (allprop when idx is nil) and checks
// the answer against the model window. A failed request is recorded by
// the client and skips the check.
func propfindCheck(c *client, kind, p, coll string, depth davproto.Depth, idx []int, w *window) error {
	var ms davproto.Multistatus
	err := c.do(kind, func(dc *davclient.Client) error {
		var err error
		if idx == nil {
			ms, err = dc.PropFindAll(p, depth)
		} else {
			ms, err = dc.PropFindSelected(p, depth, names(idx)...)
		}
		return err
	})
	if err != nil {
		return nil
	}
	if err := w.check(ms, coll); err != nil {
		return checkf("%s %s: %v", kind, p, err)
	}
	return nil
}

// treeCopy copies the Table 1 tree server-side and deletes the copy,
// checking a document of each copy and the 404 after each delete.
type treeCopy struct {
	metaRead
	n atomic.Int64
}

func (w *treeCopy) loop(c *client, _ int) error {
	dst := fmt.Sprintf("/copy-%d", w.n.Add(1))
	if err := c.do("copy_tree", func(dc *davclient.Client) error {
		return dc.Copy("/data", dst, davproto.DepthInfinity, false)
	}); err != nil {
		return nil
	}
	src := w.docs[c.rnd.Intn(len(w.docs))]
	copied := dst + src.path[len("/data"):]
	idx := pickIndexes(c.rnd, w.sz.Props, w.sz.Selected)
	if err := propfindCheck(c, "propfind_selected", copied, "", davproto.Depth0, idx,
		w.m.openWindow(map[string]*doc{copied: src}, idx)); err != nil {
		return err
	}
	if err := c.do("delete_tree", func(dc *davclient.Client) error { return dc.Delete(dst) }); err != nil {
		return nil
	}
	var exists bool
	if err := c.do("head", func(dc *davclient.Client) error {
		var err error
		exists, err = dc.Exists(dst)
		return err
	}); err != nil {
		return nil
	}
	if exists {
		return checkf("%s still exists after DELETE", dst)
	}
	return nil
}

// metaWrite is the concurrent save mix: each client rewrites properties
// and bodies of its own collections and reads any collection.
type metaWrite struct {
	sz       sizes
	m        *model
	colls    [][]*doc // by collection
	nclients int
}

func (w *metaWrite) collPath(i int) string { return fmt.Sprintf("/c%02d", i) }

func (w *metaWrite) replayTarget() (string, int) { return w.collPath(0), len(w.colls[0]) + 1 }

func (w *metaWrite) populate(cs []*client) error {
	w.nclients = len(cs)
	w.colls = make([][]*doc, w.sz.Colls)
	for i := range w.colls {
		for j := 0; j < w.sz.CollDocs; j++ {
			w.colls[i] = append(w.colls[i], w.m.add(fmt.Sprintf("%s/d%02d", w.collPath(i), j), w.sz.Props))
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for k, c := range cs {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for i := k; i < w.sz.Colls; i += len(cs) {
				p := w.collPath(i)
				if err := c.do("mkcol", func(dc *davclient.Client) error { return dc.Mkcol(p) }); err != nil {
					errs[k] = err
					return
				}
				for _, d := range w.colls[i] {
					if err := createDoc(c, w.m, d); err != nil {
						errs[k] = err
						return
					}
				}
			}
		}(k, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ownDoc picks a random document from client k's collections.
func (w *metaWrite) ownDoc(c *client, k int) *doc {
	owned := (w.sz.Colls - k + w.nclients - 1) / w.nclients
	i := k + w.nclients*c.rnd.Intn(owned)
	coll := w.colls[i]
	return coll[c.rnd.Intn(len(coll))]
}

// writeMix is one loop's op sequence before shuffling: 40% PROPPATCH,
// 20% PUT, 20% Depth 1 PROPFIND, 20% GET.
var writeMix = []string{"proppatch", "proppatch", "put", "propfind_depth1", "get"}

func (w *metaWrite) loop(c *client, k int) error {
	for _, i := range c.rnd.Perm(len(writeMix)) {
		var err error
		switch writeMix[i] {
		case "proppatch":
			err = w.proppatch(c, w.ownDoc(c, k))
		case "put":
			w.put(c, w.ownDoc(c, k))
		case "propfind_depth1":
			ci := c.rnd.Intn(len(w.colls))
			idx := pickIndexes(c.rnd, w.sz.Props, w.sz.Selected)
			paths := map[string]*doc{}
			for _, d := range w.colls[ci] {
				paths[d.path] = d
			}
			p := w.collPath(ci)
			err = propfindCheck(c, "propfind_depth1", p, p, davproto.Depth1, idx, w.m.openWindow(paths, idx))
		case "get":
			coll := w.colls[c.rnd.Intn(len(w.colls))]
			err = w.get(c, coll[c.rnd.Intn(len(coll))])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *metaWrite) proppatch(c *client, d *doc) error {
	idx := pickIndexes(c.rnd, w.sz.Props, 2)
	props := w.m.beginProps(d, idx)
	var ms davproto.Multistatus
	if err := c.do("proppatch", func(dc *davclient.Client) error {
		ops := make([]davproto.PatchOp, len(props))
		for i, p := range props {
			ops[i] = davproto.PatchOp{Prop: p}
		}
		var err error
		ms, err = dc.PropPatch(d.path, ops)
		return err
	}); err != nil {
		return nil
	}
	if len(ms.Responses) != 1 {
		return checkf("PROPPATCH %s: %d responses, want 1", d.path, len(ms.Responses))
	}
	n := 0
	for _, ps := range ms.Responses[0].Propstats {
		if ps.Status != http.StatusOK {
			return checkf("PROPPATCH %s: propstat status %d", d.path, ps.Status)
		}
		n += len(ps.Props)
	}
	if n != len(idx) {
		return checkf("PROPPATCH %s: %d properties acknowledged, want %d", d.path, n, len(idx))
	}
	w.m.commitProps(d, idx)
	return nil
}

func (w *metaWrite) put(c *client, d *doc) {
	body := w.m.beginBody(d)
	if err := c.do("put", func(dc *davclient.Client) error {
		_, err := dc.PutBytes(d.path, body, "application/octet-stream")
		return err
	}); err == nil {
		w.m.commitBody(d)
	}
}

func (w *metaWrite) get(c *client, d *doc) error {
	lo := w.m.bodyLo(d)
	var body []byte
	if err := c.do("get", func(dc *davclient.Client) error {
		var err error
		body, err = dc.Get(d.path)
		return err
	}); err != nil {
		return nil
	}
	if err := w.m.checkBody(d, lo, body); err != nil {
		return checkf("GET: %v", err)
	}
	return nil
}

// drive runs every client's loop until the deadline (or, when loops is
// positive, for that many loops each) and returns the window's wall
// time: from start until the last client's last loop ended. The first
// failed check stops every client.
func drive(wl workload, cs []*client, d time.Duration, loops int) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	ends := make([]time.Time, len(cs))
	for k, c := range cs {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for n := 0; (loops > 0 && n < loops) || (loops <= 0 && time.Now().Before(deadline)); n++ {
				if stop.Load() {
					break
				}
				t := time.Now()
				if err := wl.loop(c, k); err != nil {
					errs[k] = err
					stop.Store(true)
					break
				}
				c.loops = append(c.loops, time.Since(t))
			}
			ends[k] = time.Now()
		}(k, c)
	}
	wg.Wait()
	end := start
	for _, e := range ends {
		if e.After(end) {
			end = e
		}
	}
	return end.Sub(start), errors.Join(errs...)
}
