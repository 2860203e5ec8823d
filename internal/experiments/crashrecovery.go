package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/dbm"
	"repro/internal/store"
	"repro/internal/store/fsck"
)

// This file is the PR 6 crash-recovery benchmark. The paper's
// production story leans on mod_dav surviving operator restarts; this
// experiment quantifies the reproduction's version of that claim. For
// every journaled operation it crashes the store (in-process panic via
// the step hooks) at every step boundary, reopens the directory,
// measures the recovery pass, and asserts the resulting state is
// exactly pre-op or post-op — zero torn states, zero fsck findings.
// Alongside the matrix it measures what the journal costs on the PUT
// path and what a full fsck of a populated store costs. The output is
// BENCH_PR6.json.

// BenchPR6Schema identifies the BENCH_PR6.json format.
const BenchPR6Schema = "bench_pr6/v1"

// BenchPR6Op is one operation's crash-matrix row.
type BenchPR6Op struct {
	Op            string  `json:"op"`
	CrashPoints   int     `json:"crash_points"`
	RolledForward int64   `json:"rolled_forward"`
	RolledBack    int64   `json:"rolled_back"`
	TornStates    int     `json:"torn_states"`   // post-recovery states neither pre-op nor post-op
	FsckFindings  int     `json:"fsck_findings"` // invariant violations after recovery
	MaxRecoverMs  float64 `json:"max_recover_ms"`
	MeanRecoverMs float64 `json:"mean_recover_ms"`
}

// BenchPR6Journal is the journal's write-path overhead measurement.
type BenchPR6Journal struct {
	Docs        int     `json:"docs"`
	WithMs      float64 `json:"with_ms"`
	WithoutMs   float64 `json:"without_ms"`
	OverheadPct float64 `json:"overhead_pct"`
}

// BenchPR6Fsck is the integrity-check cost on a clean populated store.
type BenchPR6Fsck struct {
	Resources int     `json:"resources"`
	Databases int     `json:"databases"`
	Findings  int     `json:"findings"`
	WallMs    float64 `json:"wall_ms"`
}

// BenchPR6Result is the full crash-recovery benchmark outcome.
type BenchPR6Result struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go"`
	CPUs      int    `json:"cpus"`
	// Ops holds one row per journaled operation.
	Ops []BenchPR6Op `json:"ops"`
	// DataLossEvents sums torn states across the matrix; the acceptance
	// condition is zero.
	DataLossEvents int             `json:"data_loss_events"`
	Journal        BenchPR6Journal `json:"journal"`
	Fsck           BenchPR6Fsck    `json:"fsck"`
}

// BenchPR6Options sizes the benchmark.
type BenchPR6Options struct {
	// JournalDocs is the PUT count for the overhead measurement
	// (default 60).
	JournalDocs int
	// FsckDocs sizes the populated store the timed fsck walks
	// (default 40 documents with properties).
	FsckDocs int
	// Flavour selects the property-database format (default GDBM).
	Flavour dbm.Flavour
	// Dir receives the scratch stores; empty means the system temp
	// directory.
	Dir string
}

// scratchDir makes a fresh scratch store root under base (or the
// system temp directory) and returns its path.
func scratchDir(base, name string) (string, error) {
	return os.MkdirTemp(base, name+"-*")
}

// crashOp is one row of the crash matrix: seed a fresh store, run the
// operation, and describe its exact pre-op and post-op states.
type crashOp struct {
	name string
	op   string // armed step prefix
	seed func(s *store.FSStore) error
	run  func(s *store.FSStore)
	pre  func(s *store.FSStore) error
	post func(s *store.FSStore) error
}

const benchPR6MaxSteps = 20

func crashOps() []crashOp {
	bg := context.Background()
	stat := func(s *store.FSStore, p string) error { _, err := s.Stat(bg, p); return err }
	gone := func(s *store.FSStore, p string) error {
		if _, err := s.Stat(bg, p); !errors.Is(err, store.ErrNotFound) {
			return fmt.Errorf("%s still exists (err=%v)", p, err)
		}
		return nil
	}
	body := func(s *store.FSStore, p, want string) error {
		rc, _, err := s.Get(bg, p)
		if err != nil {
			return err
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		if err != nil {
			return err
		}
		if string(b) != want {
			return fmt.Errorf("%s body = %q, want %q", p, b, want)
		}
		return nil
	}
	first := func(errs ...error) error {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	put := func(s *store.FSStore, p, v string) error {
		_, err := s.Put(bg, p, strings.NewReader(v), "")
		return err
	}
	return []crashOp{
		{
			name: "put-overwrite", op: "put",
			seed: func(s *store.FSStore) error { return put(s, "/doc.bin", "v1") },
			run:  func(s *store.FSStore) { s.Put(bg, "/doc.bin", strings.NewReader("v2"), "chemical/x-nwchem") },
			pre:  func(s *store.FSStore) error { return body(s, "/doc.bin", "v1") },
			post: func(s *store.FSStore) error { return body(s, "/doc.bin", "v2") },
		},
		{
			name: "delete-tree", op: "delete",
			seed: func(s *store.FSStore) error {
				return first(s.Mkcol(bg, "/dir"), put(s, "/dir/a.txt", "a"))
			},
			run:  func(s *store.FSStore) { s.Delete(bg, "/dir") },
			pre:  func(s *store.FSStore) error { return body(s, "/dir/a.txt", "a") },
			post: func(s *store.FSStore) error { return gone(s, "/dir") },
		},
		{
			name: "rename-doc", op: "rename",
			seed: func(s *store.FSStore) error {
				return first(s.Mkcol(bg, "/a"), s.Mkcol(bg, "/b"), put(s, "/a/doc.txt", "data"))
			},
			run: func(s *store.FSStore) { s.Rename(bg, "/a/doc.txt", "/b/doc.txt") },
			pre: func(s *store.FSStore) error {
				return first(body(s, "/a/doc.txt", "data"), gone(s, "/b/doc.txt"))
			},
			post: func(s *store.FSStore) error {
				return first(body(s, "/b/doc.txt", "data"), gone(s, "/a/doc.txt"))
			},
		},
		{
			name: "copy-tree", op: "copy",
			seed: func(s *store.FSStore) error {
				return first(s.Mkcol(bg, "/src"), put(s, "/src/a.txt", "a"), put(s, "/src/b.txt", "b"))
			},
			run: func(s *store.FSStore) {
				s.CopyTree(bg, "/src", "/dst", store.CopyOptions{Recurse: true})
			},
			pre: func(s *store.FSStore) error {
				return first(gone(s, "/dst"), body(s, "/src/a.txt", "a"))
			},
			post: func(s *store.FSStore) error {
				return first(body(s, "/dst/a.txt", "a"), body(s, "/dst/b.txt", "b"))
			},
		},
		{
			name: "mkcol", op: "mkcol",
			seed: func(s *store.FSStore) error { return nil },
			run:  func(s *store.FSStore) { s.Mkcol(bg, "/newdir") },
			pre:  func(s *store.FSStore) error { return gone(s, "/newdir") },
			post: func(s *store.FSStore) error { return stat(s, "/newdir") },
		},
	}
}

// RunCrashRecovery runs the crash matrix, the journal-overhead
// measurement, and the timed fsck.
func RunCrashRecovery(opts BenchPR6Options) (BenchPR6Result, error) {
	if opts.JournalDocs <= 0 {
		opts.JournalDocs = 60
	}
	if opts.FsckDocs <= 0 {
		opts.FsckDocs = 40
	}
	res := BenchPR6Result{
		Schema:    BenchPR6Schema,
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
	}

	for _, op := range crashOps() {
		row, err := runCrashOp(op, opts)
		if err != nil {
			return res, fmt.Errorf("crash-recovery %s: %w", op.name, err)
		}
		res.Ops = append(res.Ops, row)
		res.DataLossEvents += row.TornStates
	}

	j, err := measureJournalOverhead(opts)
	if err != nil {
		return res, fmt.Errorf("crash-recovery journal overhead: %w", err)
	}
	res.Journal = j

	f, err := measureFsck(opts)
	if err != nil {
		return res, fmt.Errorf("crash-recovery fsck: %w", err)
	}
	res.Fsck = f
	return res, nil
}

// runCrashOp walks one operation's step points: crash at step k,
// reopen, time the recovery pass, verify pre-or-post, fsck. The loop
// ends when k exceeds the operation's step count (it completes without
// crashing), so every step is visited without hard-coding the list.
func runCrashOp(op crashOp, opts BenchPR6Options) (BenchPR6Op, error) {
	row := BenchPR6Op{Op: op.name}
	var totalRecover time.Duration
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	for k := 1; k <= benchPR6MaxSteps; k++ {
		dir, err := scratchDir(opts.Dir, fmt.Sprintf("pr6-%s-%d", op.name, k))
		if err != nil {
			return row, err
		}
		dirs = append(dirs, dir)
		seed, err := store.NewFSStore(dir, opts.Flavour)
		if err != nil {
			return row, err
		}
		if err := op.seed(seed); err != nil {
			return row, err
		}
		if err := seed.Close(); err != nil {
			return row, err
		}

		cp := chaos.NewCrashPoint()
		s, err := store.NewFSStoreWith(dir, opts.Flavour, store.FSOptions{StepHook: cp.Hook})
		if err != nil {
			return row, err
		}
		cp.Arm(op.op, k)
		crashed, _ := chaos.Run(func() { op.run(s) })
		if !crashed {
			s.Close()
			row.CrashPoints = k - 1
			break
		}
		// A real crash would not close the store; neither do we. Reopen
		// with recovery deferred so the pass itself is what we time.
		s2, err := store.NewFSStoreWith(dir, opts.Flavour, store.FSOptions{DeferRecovery: true})
		if err != nil {
			return row, fmt.Errorf("reopen after step %d: %w", k, err)
		}
		rep, err := s2.Recover()
		if err != nil {
			s2.Close()
			return row, fmt.Errorf("recover after step %d: %w", k, err)
		}
		row.RolledForward += int64(rep.RolledForward)
		row.RolledBack += int64(rep.RolledBack)
		totalRecover += rep.Duration
		if rep.Duration > time.Duration(row.MaxRecoverMs*float64(time.Millisecond)) {
			row.MaxRecoverMs = ms(rep.Duration)
		}
		if op.pre(s2) != nil && op.post(s2) != nil {
			row.TornStates++
		}
		if err := s2.Close(); err != nil {
			return row, err
		}
		rep2, err := fsck.Check(dir, opts.Flavour)
		if err != nil {
			return row, fmt.Errorf("fsck after step %d: %w", k, err)
		}
		row.FsckFindings += len(rep2.Findings)
	}
	if row.CrashPoints == 0 {
		return row, fmt.Errorf("operation never completed within %d steps", benchPR6MaxSteps)
	}
	row.MeanRecoverMs = ms(totalRecover) / float64(row.CrashPoints)
	return row, nil
}

// measureJournalOverhead times the same PUT workload with and without
// the intent journal on fresh stores.
func measureJournalOverhead(opts BenchPR6Options) (BenchPR6Journal, error) {
	body := make([]byte, 4<<10)
	for i := range body {
		body[i] = 'j'
	}
	run := func(label string, disable bool) (time.Duration, error) {
		dir, err := scratchDir(opts.Dir, "pr6-journal-"+label)
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		s, err := store.NewFSStoreWith(dir, opts.Flavour, store.FSOptions{DisableJournal: disable})
		if err != nil {
			return 0, err
		}
		defer s.Close()
		start := time.Now()
		for i := 0; i < opts.JournalDocs; i++ {
			p := fmt.Sprintf("/doc-%03d.dat", i%8)
			if _, err := s.Put(context.Background(), p, strings.NewReader(string(body)), "application/octet-stream"); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	with, err := run("on", false)
	if err != nil {
		return BenchPR6Journal{}, err
	}
	without, err := run("off", true)
	if err != nil {
		return BenchPR6Journal{}, err
	}
	j := BenchPR6Journal{
		Docs:      opts.JournalDocs,
		WithMs:    ms(with),
		WithoutMs: ms(without),
	}
	if without > 0 {
		j.OverheadPct = 100 * (float64(with)/float64(without) - 1)
	}
	return j, nil
}

// measureFsck populates a store and times a full integrity check of it.
func measureFsck(opts BenchPR6Options) (BenchPR6Fsck, error) {
	dir, err := scratchDir(opts.Dir, "pr6-fsck")
	if err != nil {
		return BenchPR6Fsck{}, err
	}
	defer os.RemoveAll(dir)
	s, err := store.NewFSStore(dir, opts.Flavour)
	if err != nil {
		return BenchPR6Fsck{}, err
	}
	if err := s.Mkcol(context.Background(), "/proj"); err != nil {
		s.Close()
		return BenchPR6Fsck{}, err
	}
	for i := 0; i < opts.FsckDocs; i++ {
		p := fmt.Sprintf("/proj/calc-%03d.out", i)
		if _, err := s.Put(context.Background(), p, strings.NewReader("energies"), "chemical/x-output"); err != nil {
			s.Close()
			return BenchPR6Fsck{}, err
		}
	}
	if err := s.Close(); err != nil {
		return BenchPR6Fsck{}, err
	}
	start := time.Now()
	rep, err := fsck.Check(dir, opts.Flavour)
	if err != nil {
		return BenchPR6Fsck{}, err
	}
	return BenchPR6Fsck{
		Resources: rep.Resources,
		Databases: rep.Databases,
		Findings:  len(rep.Findings),
		WallMs:    ms(time.Since(start)),
	}, nil
}

// ValidateBenchPR6 checks a serialized BENCH_PR6.json against the
// acceptance conditions the CI crash smoke asserts: the schema tag,
// every journaled operation crash-tested at one or more steps, zero
// torn states, zero post-recovery fsck findings, and both auxiliary
// measurements present.
func ValidateBenchPR6(data []byte) error {
	var r BenchPR6Result
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("bench-pr6: unparseable: %w", err)
	}
	if r.Schema != BenchPR6Schema {
		return fmt.Errorf("bench-pr6: schema %q, want %q", r.Schema, BenchPR6Schema)
	}
	if len(r.Ops) < 5 {
		return fmt.Errorf("bench-pr6: %d operations crash-tested, want >= 5", len(r.Ops))
	}
	for _, op := range r.Ops {
		if op.CrashPoints <= 0 {
			return fmt.Errorf("bench-pr6: %s exercised no crash points", op.Op)
		}
		if op.TornStates != 0 {
			return fmt.Errorf("bench-pr6: %s left %d torn states (data loss)", op.Op, op.TornStates)
		}
		if op.FsckFindings != 0 {
			return fmt.Errorf("bench-pr6: %s left %d fsck findings after recovery", op.Op, op.FsckFindings)
		}
	}
	if r.DataLossEvents != 0 {
		return fmt.Errorf("bench-pr6: %d data-loss events", r.DataLossEvents)
	}
	if r.Journal.WithMs <= 0 || r.Journal.WithoutMs <= 0 {
		return fmt.Errorf("bench-pr6: journal overhead not measured")
	}
	if r.Fsck.Resources <= 0 || r.Fsck.Databases <= 0 {
		return fmt.Errorf("bench-pr6: fsck walked an empty store")
	}
	if r.Fsck.Findings != 0 {
		return fmt.Errorf("bench-pr6: timed fsck found %d findings on a clean store", r.Fsck.Findings)
	}
	return nil
}
