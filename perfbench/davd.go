package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// davd is one running server child process, started with the shipped
// defaults plus the loopback listeners and store root the benchmark
// needs.
type davd struct {
	cmd    *exec.Cmd
	addr   string // DAV listener, host:port
	admin  string // admin listener, host:port
	root   string
	args   []string
	log    *os.File
	exited chan struct{}
	err    error // Wait result, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDavd launches bin on root and waits until /readyz answers 200
// (crash recovery finished, writes accepted). extra flags follow the
// three the benchmark always sets. A start that fails because another
// process took a probed port in the meantime is retried.
func startDavd(bin, root, logPath string, extra ...string) (*davd, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *davd
		if d, err = startOnce(bin, root, logPath, extra...); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func startOnce(bin, root, logPath string, extra ...string) (*davd, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	admin, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-root", root, "-admin", admin}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// davd must not outlive the generator, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start davd: %w", err)
	}
	d := &davd{cmd: cmd, addr: addr, admin: admin, root: root, args: args, log: logf, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(30 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *davd) pid() int { return d.cmd.Process.Pid }

func (d *davd) baseURL() string { return "http://" + d.addr }

// waitReady polls /readyz until it answers 200 or the process exits.
func (d *davd) waitReady(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("davd exited during start-up: %v (log %s)", d.err, d.log.Name())
		default:
		}
		resp, err := hc.Get(d.baseURL() + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("davd not ready after %s (log %s)", limit, d.log.Name())
}

// stop sends SIGTERM and waits for the graceful drain; a clean exit is
// exit code 0. A process that outlives the grace period is killed.
func (d *davd) stop() error {
	defer d.log.Close()
	select {
	case <-d.exited:
		return fmt.Errorf("davd had already exited: %v", d.err)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal davd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("davd did not exit within 30s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("davd exit after SIGTERM: %w", d.err)
	}
	return nil
}

// kill ends the process without a drain and waits for it; used on
// error paths only.
func (d *davd) kill() {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// adminGet fetches one admin endpoint.
func (d *davd) adminGet(p string) ([]byte, error) {
	hc := &http.Client{Timeout: 30 * time.Second}
	resp, err := hc.Get("http://" + d.admin + p)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", p, resp.StatusCode)
	}
	return body, nil
}

// series is one /metrics scrape: full series name (with labels) → value.
type series map[string]float64

// scrapeMetrics reads davd's Prometheus exposition.
func (d *davd) scrapeMetrics() (series, error) {
	body, err := d.adminGet("/metrics")
	if err != nil {
		return nil, err
	}
	out := series{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// Exemplars follow " # "; the value is the last field before.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// sum adds every series of family name whose labels contain all of
// the given label="value" pairs.
func (s series) sum(name string, labels ...string) float64 {
	var t float64
	for k, v := range s {
		base, lbl := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base, lbl = k[:i], k[i:]
		}
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// memstats is the part of /debug/vars the benchmark reads.
type memstats struct {
	Mallocs      uint64
	TotalAlloc   uint64
	NumGC        uint64
	PauseTotalNs uint64
}

func (d *davd) memstats() (memstats, error) {
	body, err := d.adminGet("/debug/vars")
	if err != nil {
		return memstats{}, err
	}
	var v struct{ Memstats memstats }
	if err := json.Unmarshal(body, &v); err != nil {
		return memstats{}, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return v.Memstats, nil
}

// procSample is what /proc/<pid>/{stat,io,status} say about davd.
type procSample struct {
	cpuTicks   uint64 // utime + stime
	rchar      uint64
	wchar      uint64
	syscr      uint64
	syscw      uint64
	readBytes  uint64
	writeBytes uint64
	hwmKB      uint64 // VmHWM
}

// clockTicks is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTicks = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := fmt.Sprintf("/proc/%d/", pid)
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short %sstat", dir)
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	s.cpuTicks = ut + st
	ioStat, err := os.ReadFile(dir + "io")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(ioStat), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		switch k {
		case "rchar":
			s.rchar = n
		case "wchar":
			s.wchar = n
		case "syscr":
			s.syscr = n
		case "syscw":
			s.syscw = n
		case "read_bytes":
			s.readBytes = n
		case "write_bytes":
			s.writeBytes = n
		}
	}
	status, err := os.ReadFile(dir + "status")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			s.hwmKB, _ = strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return s, nil
}

// treeBytes sums the apparent size of every regular file under root.
func treeBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(p string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			fi, err := e.Info()
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// fsTypes names the statfs magic numbers a store root plausibly sits on.
var fsTypes = map[int64]string{
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
	0xf2f52010: "f2fs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if n, ok := fsTypes[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
