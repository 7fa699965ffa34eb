package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running treecached process.
type daemon struct {
	cmd         *exec.Cmd
	addr, admin string
	out         *syncBuffer
	exited      chan struct{} // closed once the process has been reaped
	waitErr     error
}

// syncBuffer collects the daemon's output for error reports.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freeAddr reserves a loopback port and releases it for the daemon.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

const readyTimeout = 120 * time.Second

// launch execs the daemon and waits for /readyz 200. It returns the
// time from exec to readiness.
func launch(bin string, args []string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	admin, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{addr: addr, admin: admin, out: &syncBuffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr, "-admin", admin}, args...)...)
	d.cmd.Stdout = d.out
	d.cmd.Stderr = d.out
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start daemon: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.awaitReady(); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// awaitReady polls /readyz until it answers 200.
func (d *daemon) awaitReady() error {
	hc := &http.Client{Timeout: time.Second}
	url := "http://" + d.admin + "/readyz"
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("daemon exited before ready (%v): %s", d.waitErr, d.out.String())
		default:
		}
		if resp, err := hc.Get(url); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("daemon not ready after %v: %s", readyTimeout, d.out.String())
}

// awaitOutput waits until the daemon's output matches re.
func (d *daemon) awaitOutput(re *regexp.Regexp) error {
	deadline := time.Now().Add(readyTimeout)
	for !re.MatchString(d.out.String()) {
		select {
		case <-d.exited:
			return fmt.Errorf("daemon exited (%v): %s", d.waitErr, d.out.String())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon did not print %v: %s", re, d.out.String())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// stop signals the daemon and waits for it to exit. SIGTERM is the
// graceful drain, which must exit 0; SIGKILL is the crash.
func (d *daemon) stop(sig syscall.Signal) error {
	if err := d.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signal daemon: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(readyTimeout):
		d.kill()
		return fmt.Errorf("daemon did not exit after %v", sig)
	}
	if sig == syscall.SIGTERM && d.waitErr != nil {
		return fmt.Errorf("daemon drain failed (%v): %s", d.waitErr, d.out.String())
	}
	return nil
}

// kill ends the process unconditionally and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already gone is fine
	<-d.exited
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}
