package main

import (
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// childEnv makes TestMain run the daemon's main instead of the tests,
// so a test can exec this binary as a real treecached process.
const childEnv = "TREECACHED_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestSIGTERMRightAfterReady sends SIGTERM the moment /readyz first
// answers 200: the daemon must already be catching the signal, so it
// drains, writes its checkpoint and exits 0 instead of dying undrained.
func TestSIGTERMRightAfterReady(t *testing.T) {
	state := t.TempDir()
	admin := freeAddr(t)
	cmd := exec.Command(os.Args[0], "-addr", freeAddr(t), "-admin", admin, "-state-dir", state,
		"-tenants", "1", "-nodes", "255", "-capacity", "32")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if resp, err := hc.Get("http://" + admin + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before becoming ready: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("daemon never answered /readyz 200")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon did not exit cleanly on SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	if _, err := os.Stat(filepath.Join(state, "checkpoint.tcckpt")); err != nil {
		t.Fatalf("drain wrote no checkpoint: %v", err)
	}
}
