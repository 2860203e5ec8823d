package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/dbm"
	"repro/internal/obs/trace"
	"repro/internal/store"
	"repro/internal/store/journal"
)

// session is one store root with its model, workload and the davd
// currently serving it.
type session struct {
	o       options
	root    string
	logPath string
	m       *model
	wl      workload
	d       *davd
	cs      []*client
	harv    *harvester // traced runs only
}

// setup starts davd on a fresh root, populates the tree and warms the
// caches with a few untimed loops. The returned duration is setup_s.
func setup(o options, dir string, i int) (*session, time.Duration, error) {
	root := filepath.Join(dir, fmt.Sprintf("root-%d", i))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, 0, err
	}
	m := newModel(o.seed, o.sz.ValueBytes, o.sz.BodyBytes)
	wl, err := newWorkload(o.workload, o.sz, m)
	if err != nil {
		return nil, 0, err
	}
	s := &session{o: o, root: root, logPath: filepath.Join(dir, fmt.Sprintf("davd-%d.log", i)), m: m, wl: wl}
	start := time.Now()
	if err := s.start(false); err != nil {
		return nil, 0, err
	}
	if err := wl.populate(s.cs); err != nil {
		s.d.kill()
		return nil, 0, fmt.Errorf("populate: %w", err)
	}
	if err := s.warm(); err != nil {
		s.d.kill()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// start launches davd on the session's root and connects the clients;
// traced adds -trace-sample 1 and a client-side tracer.
func (s *session) start(traced bool) error {
	var extra []string
	if traced {
		extra = []string{"-trace-sample", "1"}
	}
	d, err := startDavd(filepath.Join(s.o.binDir, "davd"), s.root, s.logPath, extra...)
	if err != nil {
		return err
	}
	s.d = d
	s.cs = nil
	s.harv = nil
	var tracer *trace.Tracer
	if traced {
		tracer = trace.New(trace.Config{})
		s.harv = newHarvester(d)
	}
	for k := 0; k < s.o.sz.Clients; k++ {
		c, err := newClient(d.baseURL(), s.o.seed*1000+int64(k), tracer)
		if err != nil {
			d.kill()
			return err
		}
		if s.harv != nil {
			c.onOp = s.harv.onOp
		}
		s.cs = append(s.cs, c)
	}
	return nil
}

// warm runs the workload's untimed warm-up loops, waits for davd's
// start-up profile capture to finish, and clears the logs.
func (s *session) warm() error {
	if _, err := drive(s.wl, s.cs, 0, s.o.sz.WarmLoops); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := failedOps(s.cs); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for _, c := range s.cs {
		c.ops, c.loops = nil, nil
	}
	return s.awaitFirstProfile(10 * time.Second)
}

// awaitFirstProfile waits until the continuous profiler's first tick,
// which davd starts with a one-second CPU profile, has captured every
// kind; the next tick is a minute later, outside any window.
func (s *session) awaitFirstProfile(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		met, err := s.d.scrapeMetrics()
		if err != nil {
			return err
		}
		done := true
		for k, v := range met {
			if strings.HasPrefix(k, "dav_prof_captures_total{") && v < 1 {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("davd's first profile capture did not finish within %s", limit)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// failedOps reports the first failed request since the logs were last
// cleared (population and warm-up must not fail).
func failedOps(cs []*client) error {
	for _, c := range cs {
		for _, op := range c.ops {
			if op.failed {
				return fmt.Errorf("%s request failed", op.kind)
			}
		}
	}
	return nil
}

// discard stops davd and removes the root (a repeated set-up that only
// served setup_s).
func (s *session) discard() error {
	for _, c := range s.cs {
		c.close()
	}
	if err := s.d.stop(); err != nil {
		return err
	}
	return os.RemoveAll(s.root)
}

// probe is everything read from outside davd at a window boundary.
type probe struct {
	met  series
	proc procSample
	mem  memstats
	cpu  time.Duration // the load generator's own user+system time
	resp int64         // response body bytes the clients received
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *session) probe() (probe, error) {
	var p probe
	var err error
	if p.met, err = s.d.scrapeMetrics(); err != nil {
		return p, err
	}
	if p.mem, err = s.d.memstats(); err != nil {
		return p, err
	}
	if p.proc, err = readProc(s.d.pid()); err != nil {
		return p, err
	}
	for _, c := range s.cs {
		p.resp += c.tr.bytes.Load()
	}
	p.cpu = selfCPU()
	return p, nil
}

// windowResult is one measured window.
type windowResult struct {
	elapsed       time.Duration
	ops           []opRecord
	loops         []time.Duration
	before, after probe
	checkErr      error // first failed output check, if any
}

func (w *windowResult) failed() int {
	n := 0
	for _, op := range w.ops {
		if op.failed {
			n++
		}
	}
	return n
}

// window runs the closed loops for d and probes davd on both sides.
func (s *session) window(d time.Duration) (*windowResult, error) {
	w := &windowResult{}
	var err error
	if w.before, err = s.probe(); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	w.elapsed, w.checkErr = drive(s.wl, s.cs, d, 0)
	cpu1 := selfCPU()
	if w.after, err = s.probe(); err != nil {
		return nil, err
	}
	// Count only the generator's CPU inside the window, not the probes.
	w.before.cpu, w.after.cpu = cpu0, cpu1
	for _, c := range s.cs {
		w.ops = append(w.ops, c.ops...)
		w.loops = append(w.loops, c.loops...)
		c.ops, c.loops = nil, nil
	}
	if len(w.ops) == 0 {
		return nil, errors.New("window completed no requests")
	}
	return w, nil
}

// serverChecks are the counters that must read zero on a healthy run:
// connections the limiter dropped and failed store operations. A Stat
// that finds nothing is the store answering a lookup (every create and
// the 404 probe after a DELETE start with one), so op="stat" errors are
// allowed up to the requests of the kinds that address a missing path.
func (s *session) serverChecks(met series) []string {
	missingLookups := 0
	for _, c := range s.cs {
		missingLookups += c.sent["mkcol"] + c.sent["put"] + c.sent["copy_tree"] + c.sent["head"]
	}
	var out []string
	if v := met.sum("dav_limiter_dropped_total"); v != 0 {
		out = append(out, fmt.Sprintf("dav_limiter_dropped_total = %g, want 0", v))
	}
	all := met.sum("dav_store_op_errors_total")
	stat := met.sum("dav_store_op_errors_total", `op="stat"`)
	if all-stat != 0 {
		out = append(out, fmt.Sprintf("dav_store_op_errors_total (excluding stat) = %g, want 0", all-stat))
	}
	if stat > float64(missingLookups) {
		out = append(out, fmt.Sprintf("dav_store_op_errors_total{op=\"stat\"} = %g, more than the %d lookups of missing paths", stat, missingLookups))
	}
	return out
}

// shutdown stops davd with SIGTERM and checks the store offline:
// davfsck must report the root clean and the journal must hold no
// pending intent.
func (s *session) shutdown() []string {
	for _, c := range s.cs {
		c.close()
	}
	var out []string
	if err := s.d.stop(); err != nil {
		out = append(out, err.Error())
	}
	cmd := exec.Command(filepath.Join(s.o.binDir, "davfsck"), "-root", s.root, "-json")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum struct {
		Clean bool `json:"clean"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || runErr != nil || !sum.Clean {
		out = append(out, fmt.Sprintf("davfsck: not clean (exit %v): %s", runErr, strings.TrimSpace(stdout.String())))
	}
	pending, err := journal.ReadPending(filepath.Join(s.root, store.MetaDirName, store.JournalFileName))
	if err != nil {
		out = append(out, fmt.Sprintf("read journal: %v", err))
	} else if len(pending) != 0 {
		out = append(out, fmt.Sprintf("journal holds %d pending intents after shutdown", len(pending)))
	}
	return out
}

// dbmWalk opens every property database under the stopped root and sums
// its storage accounting.
func dbmWalk(root string) (dbm.Stats, error) {
	var total dbm.Stats
	err := filepath.WalkDir(root, func(p string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.Type().IsRegular() || !strings.HasSuffix(p, store.PropsExt) {
			return nil
		}
		db, err := dbm.Open(p, dbm.GDBM)
		if err != nil {
			return fmt.Errorf("open %s: %w", p, err)
		}
		st, err := db.Stats()
		db.Close()
		if err != nil {
			return fmt.Errorf("stats %s: %w", p, err)
		}
		total.Keys += st.Keys
		total.LiveBytes += st.LiveBytes
		total.DeadBytes += st.DeadBytes
		total.FileSize += st.FileSize
		return nil
	})
	return total, err
}
