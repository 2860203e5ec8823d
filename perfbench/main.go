// Command perfbench is the repository's benchmark. It runs davd, built
// from the tree under test, as a child process with its shipped
// defaults (only -addr, -root and a loopback -admin are set), drives one
// closed-loop workload at it over loopback TCP through
// internal/davclient, checks every answer against a model of the
// values it wrote, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones, taken from an untraced window (davd's
// counters, /proc, client rusage, replayed parses) followed by a window
// against davd at -trace-sample 1 whose server spans are joined to the
// benchmark's own client spans.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload meta-read --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	binDir   string // holds davd and davfsck built from the tree
	workDir  string // store roots and logs; removed afterwards
	sz       sizes
	setups   int // set-ups per run; setup_s is their median
}

// Units of every metric the benchmark can print.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"loop_p50_ms", "ms"},
	{"loop_p75_ms", "ms"},
	{"server_cpu_ms_per_op", "ms/op"},
	{"davd_peak_rss_mb", "MB"},
	{"disk_bytes_per_live_byte", "ratio"},
}

var perLayer = []struct{ name, unit string }{
	{"error_ratio", "ratio"},
	{"propfind_allprop_p50_ms", "ms"},
	{"propfind_selected_p50_ms", "ms"},
	{"propfind_depth1_p50_ms", "ms"},
	{"propfind_depth1_p90_ms", "ms"},
	{"proppatch_p50_ms", "ms"},
	{"proppatch_p95_ms", "ms"},
	{"put_p50_ms", "ms"},
	{"put_p95_ms", "ms"},
	{"get_p50_ms", "ms"},
	{"copy_tree_p50_ms", "ms"},
	{"delete_tree_p50_ms", "ms"},
	{"davclient.cpu_ms_per_op", "ms/op"},
	{"davclient.resp_bytes_per_op", "B/op"},
	{"davclient.self_ms_per_op", "ms/op"},
	{"davproto.parse_multistatus_us", "us"},
	{"davproto.parse_multistatus_allocs", "count"},
	{"xmldom.scan_sax_us", "us"},
	{"davserver.request_ms_per_op", "ms/op"},
	{"davserver.self_ms_per_op", "ms/op"},
	{"davserver.gate_contended_per_op", "1/op"},
	{"davserver.gate_wait_ms_per_op", "ms/op"},
	{"store.ms_per_op", "ms/op"},
	{"store.calls_per_op", "1/op"},
	{"store.errors", "count"},
	{"store.list_with_props_ms", "ms"},
	{"store.prop_put_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.copy_tree_ms", "ms"},
	{"store.delete_ms", "ms"},
	{"store.self_ms_per_op", "ms/op"},
	{"pathlock.acquisitions_per_op", "1/op"},
	{"pathlock.contended_ratio", "ratio"},
	{"pathlock.wait_ms_per_op", "ms/op"},
	{"dbm.cache_hit_ratio", "ratio"},
	{"dbm.cache_misses_per_op", "1/op"},
	{"dbm.cache_evictions_per_op", "1/op"},
	{"dbm.cache_invalidations_per_op", "1/op"},
	{"dbm.ms_per_op", "ms/op"},
	{"dbm.calls_per_op", "1/op"},
	{"dbm.dead_ratio", "ratio"},
	{"dbm.file_bytes_per_live_byte", "ratio"},
	{"davd.read_bytes_per_op", "B/op"},
	{"davd.read_syscalls_per_op", "1/op"},
	{"davd.read_bytes_per_resp_byte", "ratio"},
	{"davd.write_bytes_per_op", "B/op"},
	{"davd.write_syscalls_per_op", "1/op"},
	{"davd.disk_write_bytes_per_op", "B/op"},
	{"davd.allocs_per_op", "1/op"},
	{"davd.alloc_bytes_per_op", "B/op"},
	{"davd.gc_cycles_per_kop", "1/kop"},
	{"davd.gc_pause_us_per_op", "us/op"},
	{"obs.prof_captures", "count"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"obs.traces_truncated", "count"},
	{"obs.traces_unjoined", "count"},
}

// result is what one invocation prints.
type result struct {
	meta      map[string]any
	values    map[string]float64
	attempted int
	failed    int
	problems  []string // failed output checks
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "meta-read", "workload: meta-read, meta-write or tree-copy")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of each measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an untraced and a traced window")
	flag.StringVar(&o.binDir, "bin", "", "directory holding davd and davfsck built from the tree (required)")
	flag.StringVar(&o.workDir, "work", "", "scratch directory for store roots and logs (required)")
	flag.Parse()
	sz, ok := fullSizes[o.workload]
	if !ok || o.binDir == "" || o.workDir == "" || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload meta-read|meta-write|tree-copy, -seconds > 0, -trace 0|1, -bin and -work")
		os.Exit(2)
	}
	o.sz = sz
	o.trace = traceFlag == 1
	o.setups = 3
	if o.trace {
		o.setups = 1
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !report(os.Stdout, o, res) {
		os.Exit(1)
	}
}

// report writes the metadata, one line per metric and the final JSON
// line; it reports whether every check passed.
func report(w io.Writer, o options, res *result) bool {
	meta, _ := json.Marshal(res.meta)
	fmt.Fprintf(w, "perfbench: %s\n", meta)
	list := endToEnd
	if o.trace {
		list = perLayer
	}
	out := map[string]map[string]any{}
	for _, m := range list {
		v := res.values[m.name]
		fmt.Fprintf(w, "%-36s %16.6f %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	correct := len(res.problems) == 0 && res.failed == 0
	line, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	fmt.Fprintf(w, "%s\n", line)
	return correct
}

// run performs one invocation: set-ups, the measured window(s), the
// shutdown checks.
func run(o options) (*result, error) {
	dir, err := filepath.Abs(filepath.Join(o.workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &result{values: map[string]float64{}}
	var setupS []float64
	var s *session
	for i := 0; i < o.setups; i++ {
		si, d, err := setup(o, dir, i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, d.Seconds())
		if i == o.setups-1 {
			s = si
		} else if err := si.discard(); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
	}
	defer func() {
		if s.d != nil {
			s.d.kill()
		}
	}()
	res.values["setup_s"] = quantile(setupS, 0.5)
	res.meta = runMeta(o, s)

	w, err := s.window(time.Duration(o.seconds * float64(time.Second)))
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = len(w.ops), w.failed()
	if w.checkErr != nil {
		res.problems = append(res.problems, w.checkErr.Error())
	}
	res.problems = append(res.problems, s.serverChecks(w.after.met)...)
	if err := endToEndValues(res.values, s, w); err != nil {
		return nil, err
	}
	if o.trace {
		if err := untracedLayers(res.values, s, w); err != nil {
			return nil, err
		}
	}
	res.problems = append(res.problems, s.shutdown()...)
	s.d = nil
	if !o.trace {
		return res, nil
	}

	st, err := dbmWalk(s.root)
	if err != nil {
		return nil, err
	}
	res.values["dbm.dead_ratio"] = ratio(float64(st.DeadBytes), float64(st.LiveBytes+st.DeadBytes))
	res.values["dbm.file_bytes_per_live_byte"] = ratio(float64(st.FileSize), float64(st.LiveBytes))

	// The traced window: davd restarted on the same root at
	// -trace-sample 1, warmed again, its traces harvested throughout.
	if err := s.start(true); err != nil {
		return nil, err
	}
	res.meta["davd_traced_flags"] = s.d.args
	if err := s.warm(); err != nil {
		return nil, err
	}
	tw, err := s.window(time.Duration(o.seconds * float64(time.Second)))
	if err != nil {
		return nil, err
	}
	res.attempted += len(tw.ops)
	res.failed += tw.failed()
	if tw.checkErr != nil {
		res.problems = append(res.problems, tw.checkErr.Error())
	}
	res.problems = append(res.problems, s.serverChecks(tw.after.met)...)
	if err := s.harv.harvest(); err != nil {
		return nil, err
	}
	layers := traceLayers(tw.ops, s.harv.traces)
	for k, v := range layers {
		res.values[k] = v
	}
	res.values["obs.trace_overhead_ratio"] = ratio(meanDur(tw.ops), meanDur(w.ops)) - 1
	res.problems = append(res.problems, s.shutdown()...)
	s.d = nil
	return res, nil
}

// runMeta records what the numbers depend on besides the code.
func runMeta(o options, s *session) map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"sizes":      o.sz,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(string(kernel)),
		"root_fs":    fsType(s.root),
		"davd_flags": s.d.args,
	}
}

func meanDur(ops []opRecord) float64 {
	var t float64
	for _, op := range ops {
		t += float64(op.dur)
	}
	return ratio(t, float64(len(ops)))
}

// endToEndValues computes the metrics a user of davd sees.
func endToEndValues(v map[string]float64, s *session, w *windowResult) error {
	n := float64(len(w.ops))
	loops := millis(w.loops)
	v["ops_per_s"] = n / w.elapsed.Seconds()
	v["loop_p50_ms"] = quantile(loops, 0.5)
	v["loop_p75_ms"] = tailQuantile(loops, 0.75)
	v["server_cpu_ms_per_op"] = float64(w.after.proc.cpuTicks-w.before.proc.cpuTicks) * 1000 / clockTicks / n
	v["davd_peak_rss_mb"] = float64(w.after.proc.hwmKB) / 1024
	b, err := treeBytes(s.root)
	if err != nil {
		return fmt.Errorf("size store root: %w", err)
	}
	v["disk_bytes_per_live_byte"] = ratio(float64(b), float64(s.m.liveBytes()))
	return nil
}

// untracedLayers computes the counter-based per-layer metrics of the
// untraced window and replays a captured Depth 1 body.
func untracedLayers(v map[string]float64, s *session, w *windowResult) error {
	n := float64(len(w.ops))
	per := func(x float64) float64 { return x / n }
	b, a := w.before, w.after
	d := func(name string, labels ...string) float64 {
		return a.met.sum(name, labels...) - b.met.sum(name, labels...)
	}

	v["error_ratio"] = float64(w.failed()) / n
	byKind := map[string][]float64{}
	for _, op := range w.ops {
		if !op.failed {
			byKind[op.kind] = append(byKind[op.kind], float64(op.dur.Nanoseconds())/1e6)
		}
	}
	v["propfind_allprop_p50_ms"] = quantile(byKind["propfind_allprop"], 0.5)
	v["propfind_selected_p50_ms"] = quantile(byKind["propfind_selected"], 0.5)
	v["propfind_depth1_p50_ms"] = quantile(byKind["propfind_depth1"], 0.5)
	v["propfind_depth1_p90_ms"] = tailQuantile(byKind["propfind_depth1"], 0.9)
	v["proppatch_p50_ms"] = quantile(byKind["proppatch"], 0.5)
	v["proppatch_p95_ms"] = tailQuantile(byKind["proppatch"], 0.95)
	v["put_p50_ms"] = quantile(byKind["put"], 0.5)
	v["put_p95_ms"] = tailQuantile(byKind["put"], 0.95)
	v["get_p50_ms"] = quantile(byKind["get"], 0.5)
	v["copy_tree_p50_ms"] = quantile(byKind["copy_tree"], 0.5)
	v["delete_tree_p50_ms"] = quantile(byKind["delete_tree"], 0.5)

	respBytes := float64(a.resp - b.resp)
	v["davclient.cpu_ms_per_op"] = per(float64(a.cpu-b.cpu) / 1e6)
	v["davclient.resp_bytes_per_op"] = per(respBytes)

	v["davserver.request_ms_per_op"] = per(d("dav_request_duration_seconds_sum") * 1000)
	v["davserver.gate_contended_per_op"] = per(d("dav_gate_contended_total"))
	v["davserver.gate_wait_ms_per_op"] = per(d("dav_gate_wait_seconds_total") * 1000)

	v["store.ms_per_op"] = per(d("dav_store_op_duration_seconds_sum") * 1000)
	v["store.calls_per_op"] = per(d("dav_store_op_duration_seconds_count"))
	v["store.errors"] = d("dav_store_op_errors_total")
	for _, op := range []string{"list_with_props", "prop_put", "put", "copy_tree", "delete"} {
		l := `op="` + op + `"`
		v["store."+op+"_ms"] = ratio(d("dav_store_op_duration_seconds_sum", l)*1000, d("dav_store_op_duration_seconds_count", l))
	}

	acq := d("dav_pathlock_acquisitions_total")
	v["pathlock.acquisitions_per_op"] = per(acq)
	v["pathlock.contended_ratio"] = ratio(d("dav_pathlock_contended_total"), acq)
	v["pathlock.wait_ms_per_op"] = per(d("dav_pathlock_wait_seconds_total") * 1000)

	hits, misses := d("dav_dbm_cache_hits_total"), d("dav_dbm_cache_misses_total")
	v["dbm.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["dbm.cache_misses_per_op"] = per(misses)
	v["dbm.cache_evictions_per_op"] = per(d("dav_dbm_cache_evictions_total"))
	v["dbm.cache_invalidations_per_op"] = per(d("dav_dbm_cache_invalidations_total"))

	pb, pa := b.proc, a.proc
	v["davd.read_bytes_per_op"] = per(float64(pa.rchar - pb.rchar))
	v["davd.read_syscalls_per_op"] = per(float64(pa.syscr - pb.syscr))
	v["davd.read_bytes_per_resp_byte"] = ratio(float64(pa.rchar-pb.rchar), respBytes)
	v["davd.write_bytes_per_op"] = per(float64(pa.wchar - pb.wchar))
	v["davd.write_syscalls_per_op"] = per(float64(pa.syscw - pb.syscw))
	v["davd.disk_write_bytes_per_op"] = per(float64(pa.writeBytes - pb.writeBytes))

	mb, ma := b.mem, a.mem
	v["davd.allocs_per_op"] = per(float64(ma.Mallocs - mb.Mallocs))
	v["davd.alloc_bytes_per_op"] = per(float64(ma.TotalAlloc - mb.TotalAlloc))
	v["davd.gc_cycles_per_kop"] = per(float64(ma.NumGC-mb.NumGC) * 1000)
	v["davd.gc_pause_us_per_op"] = per(float64(ma.PauseTotalNs-mb.PauseTotalNs) / 1000)

	v["obs.prof_captures"] = d("dav_prof_captures_total", `kind="cpu"`)

	coll, responses := s.wl.replayTarget()
	body, err := captureDepth1(s.d.baseURL(), coll, allIndexes(s.o.sz.Selected))
	if err != nil {
		return fmt.Errorf("capture Depth 1 body: %w", err)
	}
	replay, err := replayLayers(body, responses)
	if err != nil {
		return err
	}
	for k, x := range replay {
		v[k] = x
	}
	return nil
}
