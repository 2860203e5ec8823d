package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// serverSpan is one node of davd's /debug/traces?format=jsonl export.
type serverSpan struct {
	Name     string       `json:"name"`
	StartUS  int64        `json:"start_us"`
	DurUS    int64        `json:"duration_us"`
	Children []serverSpan `json:"children"`
}

// serverTrace is the per-layer summary of one harvested server trace.
type serverTrace struct {
	serverUS     int64 // the dav.server span, end to end
	serverSelfUS int64 // dav.server minus its store children
	storeSelfUS  int64 // store.* minus their dbm children
	dbmUS        int64 // dbm.* spans
	dbmCalls     int64
	truncated    bool
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent serverSpan) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(parent.Children))
	lo, hi := parent.StartUS, parent.StartUS+parent.DurUS
	for _, c := range parent.Children {
		a, b := max(c.StartUS, lo), min(c.StartUS+c.DurUS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var n, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			n += v.b - end
			end = v.b
		}
	}
	return n
}

// summarize folds a span tree into per-layer self times: a span's self
// time is its duration minus the part its children cover.
func (st *serverTrace) summarize(s serverSpan) {
	self := s.DurUS - covered(s)
	switch {
	case strings.HasPrefix(s.Name, "dav.server"):
		st.serverUS += s.DurUS
		st.serverSelfUS += self
	case strings.HasPrefix(s.Name, "store."):
		st.storeSelfUS += self
	case strings.HasPrefix(s.Name, "dbm."):
		st.dbmUS += self
		st.dbmCalls++
	}
	for _, c := range s.Children {
		st.summarize(c)
	}
}

// harvester pulls davd's retained traces often enough that the flight
// recorder's ring never evicts one the benchmark has not seen.
type harvester struct {
	d     *davd
	every int64 // requests between harvests, below the ring capacity

	pending atomic.Int64
	mu      sync.Mutex
	traces  map[string]serverTrace
	err     error
}

// traceRing is davd's default flight-recorder capacity.
const traceRing = 256

func newHarvester(d *davd) *harvester {
	return &harvester{d: d, every: traceRing / 4, traces: map[string]serverTrace{}}
}

// onOp counts one request and harvests once enough have accumulated;
// a caller that finds a harvest in progress moves on.
func (h *harvester) onOp() {
	if h.pending.Add(1) < h.every || !h.mu.TryLock() {
		return
	}
	defer h.mu.Unlock()
	h.pending.Store(0)
	h.harvestLocked()
}

func (h *harvester) harvest() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.harvestLocked()
	return h.err
}

func (h *harvester) harvestLocked() {
	body, err := h.d.adminGet("/debug/traces?format=jsonl")
	if err != nil {
		if h.err == nil {
			h.err = fmt.Errorf("harvest traces: %w", err)
		}
		return
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var t struct {
			TraceID   string       `json:"trace_id"`
			Truncated int          `json:"truncated"`
			Spans     []serverSpan `json:"spans"`
		}
		// Skip traces already summarized before decoding their spans.
		line := sc.Bytes()
		if i := bytes.Index(line, []byte(`"trace_id":"`)); i >= 0 && len(line) >= i+44 {
			if _, ok := h.traces[string(line[i+12:i+44])]; ok {
				continue
			}
		}
		if err := json.Unmarshal(line, &t); err != nil {
			if h.err == nil {
				h.err = fmt.Errorf("decode trace export: %w", err)
			}
			return
		}
		st := serverTrace{truncated: t.Truncated > 0}
		for _, s := range t.Spans {
			st.summarize(s)
		}
		h.traces[t.TraceID] = st
	}
	if err := sc.Err(); err != nil && h.err == nil {
		h.err = fmt.Errorf("read trace export: %w", err)
	}
}

// traceLayers joins client ops to server traces by trace ID and returns
// the span-derived per-layer metrics, all per joined op. A trace davd
// truncated at its per-trace span cap has lost its last-ending spans,
// the dav.server root among them, so it is counted and left out.
func traceLayers(ops []opRecord, traces map[string]serverTrace) map[string]float64 {
	var joined, truncated, missing int
	var clientSelf, serverSelf, storeSelf, dbmUS, dbmCalls float64
	for _, op := range ops {
		st, ok := traces[op.traceID.String()]
		if !ok {
			missing++
			continue
		}
		if st.truncated {
			truncated++
			continue
		}
		joined++
		clientSelf += float64(op.dur.Microseconds() - st.serverUS)
		serverSelf += float64(st.serverSelfUS)
		storeSelf += float64(st.storeSelfUS)
		dbmUS += float64(st.dbmUS)
		dbmCalls += float64(st.dbmCalls)
	}
	out := map[string]float64{}
	per := func(v float64) float64 {
		if joined == 0 {
			return 0
		}
		return v / float64(joined)
	}
	out["davclient.self_ms_per_op"] = per(clientSelf) / 1000
	out["davserver.self_ms_per_op"] = per(serverSelf) / 1000
	out["store.self_ms_per_op"] = per(storeSelf) / 1000
	out["dbm.ms_per_op"] = per(dbmUS) / 1000
	out["dbm.calls_per_op"] = per(dbmCalls)
	out["obs.traces_truncated"] = float64(truncated)
	out["obs.traces_unjoined"] = float64(missing)
	return out
}
