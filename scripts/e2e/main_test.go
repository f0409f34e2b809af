package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A daemon that dies before it listens must fail startDaemon promptly
// with its exit status, not after the 30 s portfile timeout.
func TestStartDaemonReportsEarlyExit(t *testing.T) {
	falseBin, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false on PATH")
	}
	bin := t.TempDir()
	if err := os.Symlink(falseBin, filepath.Join(bin, "exocored")); err != nil {
		t.Fatal(err)
	}
	e := &env{bin: bin, tmp: t.TempDir()}
	errc := make(chan error, 1)
	go func() {
		d, err := startDaemon(e, "early-exit")
		if d != nil {
			d.kill()
		}
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "exited before listening: exit status") {
			t.Fatalf("startDaemon = %v, want an exited-before-listening error with the exit status", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("startDaemon did not report the exited daemon within 5s")
	}
}
