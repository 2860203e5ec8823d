package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinaries compiles davd and davfsck from the tree into a temp dir.
func buildBinaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds davd and runs it")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "repro/cmd/davd", "repro/cmd/davfsck")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return dir
}

func tinyOptions(t *testing.T, bin, workload string, traced bool) options {
	return options{
		workload: workload, seed: 7, seconds: 1.5, trace: traced,
		binDir: bin, workDir: t.TempDir(), sz: tinySizes[workload], setups: 2,
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// TestWorkloadsReportEveryMetric runs each workload at a tiny size in
// both modes and checks the final line carries exactly the metrics
// BENCHMARK.json declares, with their units, and a passing verdict.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	bin := buildBinaries(t)
	e2e, layers := declared(t)
	for _, wl := range []string{"meta-read", "meta-write", "tree-copy"} {
		for _, traced := range []bool{false, true} {
			o := tinyOptions(t, bin, wl, traced)
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			var out bytes.Buffer
			if !report(&out, o, res) {
				t.Fatalf("%s trace=%v: checks failed: %v (failed ops %d)", wl, traced, res.problems, res.failed)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var final struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", wl, traced, err)
			}
			want := e2e
			if traced {
				want = layers
			}
			if !final.Correct || final.Attempted < 1 || final.Failed != 0 {
				t.Errorf("%s trace=%v: verdict %+v", wl, traced, final)
			}
			if len(final.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl, traced, len(final.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := final.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl, traced, name, m.Unit, unit)
				}
				if !traced && ok && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, name, m.Value)
				}
			}
			if traced && final.Metrics["obs.traces_unjoined"].Value != 0 {
				t.Errorf("%s: %v client ops found no server trace", wl, final.Metrics["obs.traces_unjoined"].Value)
			}
		}
	}
}

// TestCorruptedModelFailsCheck corrupts one value of the model and
// expects the next loop's output check to catch it.
func TestCorruptedModelFailsCheck(t *testing.T) {
	bin := buildBinaries(t)
	o := tinyOptions(t, bin, "meta-read", false)
	s, _, err := setup(o, o.workDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.d.kill()
	if err := s.wl.loop(s.cs[0], 0); err != nil {
		t.Fatalf("loop before corruption: %v", err)
	}
	// Claim the server should hold version 2 of one property it only
	// ever received version 1 of.
	d := s.m.docs[len(s.m.docs)-1]
	s.m.mu.Lock()
	d.props[0].committed++
	d.props[0].started++
	s.m.mu.Unlock()
	err = s.wl.loop(s.cs[0], 0)
	var ce errCheck
	if !errors.As(err, &ce) {
		t.Fatalf("loop after corruption: got %v, want a failed check", err)
	}
	if !strings.Contains(err.Error(), d.path) {
		t.Errorf("check error %q does not name %s", err, d.path)
	}
}

// TestWindowAcceptsConcurrentVersions checks the read window used
// under concurrent writers: a value is accepted if any version between
// the committed one at send time and the newest started one wrote it.
func TestWindowAcceptsConcurrentVersions(t *testing.T) {
	m := newModel(3, 32, 16)
	d := m.add("/c00/d00", 2)
	m.beginProps(d, []int{0, 1})
	m.commitProps(d, []int{0, 1})
	w := m.openWindow(map[string]*doc{d.path: d}, []int{0})
	m.beginProps(d, []int{0}) // a write in flight while the read runs
	for ver, wantOK := range map[uint32]bool{0: false, 1: true, 2: true, 3: false} {
		err := m.matchProp(d, 0, w.lo[d][0], d.props[0].started, string(m.propValue(d, 0, ver)))
		if (err == nil) != wantOK {
			t.Errorf("version %d: err %v, want accepted=%v", ver, err, wantOK)
		}
	}
}
