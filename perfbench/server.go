package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running slimfast process. Its stdout and stderr go to
// a log file, as in a deployment; the benchmark reads the file only to
// learn the bound address.
type server struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port
	done chan error
}

// startServer launches bin with args (which must include -listen
// 127.0.0.1:0) and waits for its "# listening on" line.
func startServer(name, bin, logPath string, args ...string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	s := &server{name: name, cmd: cmd, done: make(chan error, 1)}
	go func() {
		s.done <- cmd.Wait()
		logf.Close()
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if addr := listenAddr(logPath); addr != "" {
			s.addr = addr
			return s, nil
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("%s exited before listening (%v); see %s", name, err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.stop()
	return nil, fmt.Errorf("%s did not listen within 30s; see %s", name, logPath)
}

func listenAddr(logPath string) string {
	b, err := os.ReadFile(logPath)
	if err != nil {
		return ""
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("# listening on ")); ok {
			return string(bytes.TrimSpace(rest))
		}
	}
	return ""
}

func (s *server) url() string { return "http://" + s.addr }

// stop sends SIGTERM (the graceful path: drain, final checkpoint) and
// waits; a process still up after 20s is killed.
func (s *server) stop() error {
	if s == nil {
		return nil
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		s.done <- err
		return exitErr(err)
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		err := <-s.done
		s.done <- err
		return fmt.Errorf("%s ignored SIGTERM for 20s and was killed", s.name)
	}
}

// exitErr treats a clean exit and an exit by our own SIGTERM as fine.
func exitErr(err error) error {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// stopAll stops every server, reporting the first failure.
func stopAll(ss []*server) error {
	var first error
	for _, s := range ss {
		if err := s.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clkTck = 100

// cpuSeconds reads utime+stime of pid from /proc.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) / clkTck, nil
}

// statusMiB reads a memory field of /proc/<pid>/status, such as VmRSS
// or VmHWM, in MiB.
func statusMiB(pid int, field string) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// procSample is the servers' CPU seconds and resident MiB, per
// server, at one instant.
type procSample struct {
	at       time.Time
	cpu, rss []float64
}

// sampleProcs fills out[k] at from + k·every.
func sampleProcs(ss []*server, from time.Time, every time.Duration, out []procSample) error {
	for k := range out {
		time.Sleep(time.Until(from.Add(time.Duration(k) * every)))
		p := procSample{at: time.Now()}
		for _, s := range ss {
			pid := s.cmd.Process.Pid
			c, err := cpuSeconds(pid)
			if err != nil {
				return err
			}
			m, err := statusMiB(pid, "VmRSS")
			if err != nil {
				return err
			}
			p.cpu, p.rss = append(p.cpu, c), append(p.rss, m)
		}
		out[k] = p
	}
	return nil
}
