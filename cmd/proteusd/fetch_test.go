package main

import (
	"bytes"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"pccproteus/internal/engine"
	"pccproteus/internal/engine/enginetest"
	"pccproteus/internal/fetch"
)

// proteusd fetch against a fetch server in the same process: an engine
// whose OnFetch is a fetch.Store serving a temp file. The download —
// bare, then through the shim — writes the served bytes, reports them
// verified, returns nil and leaves no engine loop or relay running.
func TestFetchWritesServedFile(t *testing.T) {
	dir := t.TempDir()
	data := make([]byte, 300_000)
	rand.New(rand.NewSource(5)).Read(data)
	if err := os.WriteFile(filepath.Join(dir, "obj.bin"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	store := fetch.NewStore()
	defer store.Close()
	if _, err := store.ServeDir(dir); err != nil {
		t.Fatal(err)
	}
	srv, err := engine.New(engine.Config{ListenIP: "127.0.0.1", OnFetch: store.HandleFetch})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	n0, relays0 := enginetest.DatapathGoroutines()

	for _, extra := range [][]string{nil, {"-shim", "-mbps", "100", "-rtt", "0.004"}} {
		out := filepath.Join(t.TempDir(), "copy.bin")
		args := append([]string{"-to", srv.Addrs()[0].String(), "-object", "obj.bin", "-out", out, "-quiet", "-timeout", "30"}, extra...)
		stdout, err := captureStdout(t, func() error {
			return runFetch(flag.NewFlagSet("fetch", flag.ContinueOnError), args)
		})
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stdout)
		}
		if !strings.Contains(stdout, "sha256: verified") {
			t.Fatalf("%v: not reported verified:\n%s", args, stdout)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%v: wrote %d bytes (err %v), want the served %d", args, len(got), err, len(data))
		}
		// A loop that has signalled its exit may still be in the dump.
		n, relays := enginetest.DatapathGoroutines()
		for end := time.Now().Add(time.Second); (n != n0 || relays != relays0) && time.Now().Before(end); {
			runtime.Gosched()
			n, relays = enginetest.DatapathGoroutines()
		}
		if n != n0 || relays != relays0 {
			t.Fatalf("%v: %d engine goroutines and %d relays left, want %d and %d", args, n, relays, n0, relays0)
		}
	}
}

// captureStdout runs fn with os.Stdout sent to a temp file and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	b, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(b), err
}

// TestFetchFlagSurface pins proteusd fetch's flags and their defaults.
func TestFetchFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("fetch", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := runFetch(fs, []string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h returned %v", err)
	}
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{
		"to": "127.0.0.1:9741", "object": "", "out": "", "proto": "proteus-s",
		"seed": "1", "timeout": "0", "quiet": "false",
		"shim": "false", "mbps": "20", "rtt": "0.04", "queue": "0", "loss": "0",
	}
	if len(got) != len(want) {
		t.Fatalf("%d flags %v, want %d", len(got), got, len(want))
	}
	for name, def := range want {
		if d, ok := got[name]; !ok || d != def {
			t.Fatalf("-%s: default %q (defined %v), want %q", name, d, ok, def)
		}
	}
}
