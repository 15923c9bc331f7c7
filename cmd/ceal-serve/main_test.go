package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ceal/internal/histdb"
	"ceal/internal/service"
)

func TestRunFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown flag exit = %d, want 2", code)
	}
	if code := run([]string{"positional"}, &out, &errOut); code != 2 {
		t.Fatalf("positional arg exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unexpected arguments") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

func TestRunBadStorePath(t *testing.T) {
	var out, errOut bytes.Buffer
	// A store path whose parent is a regular file can be neither opened nor
	// created as a segmented store directory.
	parent := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(parent, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-store", filepath.Join(parent, "runs")}, &out, &errOut); code != 1 {
		t.Fatalf("bad store exit = %d, want 1", code)
	}
	if errOut.Len() == 0 {
		t.Fatal("no error reported for bad store path")
	}
}

func TestRunBadReplicaID(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-replica-id", "a-b"}, &out, &errOut); code != 2 {
		t.Fatalf("dashed replica id exit = %d, want 2", code)
	}
	if code := run([]string{"-workers-remote", " , "}, &out, &errOut); code != 2 {
		t.Fatalf("empty worker list exit = %d, want 2", code)
	}
}

// TestServeSmoke boots the daemon on an ephemeral port, submits a tiny run
// over HTTP, and drains it via context cancellation — the same path a
// SIGINT takes through signal.NotifyContext.
func TestServeSmoke(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "runs.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var errOut bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- serve(ctx, "127.0.0.1:0", service.Options{Workers: 1, QueueLimit: 4, Store: mustStore(t, storePath)}, 10*time.Second, false, outW, &errOut)
		outW.Close()
	}()

	// The first stdout line announces the bound address.
	var addr string
	{
		buf := make([]byte, 256)
		n, err := outR.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		line := string(buf[:n])
		if _, err := fmt.Sscanf(line, "ceal-serve: listening on %s", &addr); err != nil {
			t.Fatalf("banner %q: %v", line, err)
		}
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	body := `{"benchmark":"LV","algorithm":"rs","budget":5,"pool":30,"seed":1}`
	post, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(post.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusCreated || rec.ID == "" {
		t.Fatalf("POST = %d, rec %+v", post.StatusCode, rec)
	}

	deadline := time.Now().Add(30 * time.Second)
	for rec.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("run stuck in %s", rec.State)
		}
		time.Sleep(5 * time.Millisecond)
		get, err := http.Get(base + "/v1/runs/" + rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(get.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
		get.Body.Close()
	}

	cancel() // simulated SIGINT
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exit = %d, stderr: %s", code, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not drain after cancel")
	}
	io.Copy(io.Discard, outR)

	// The finished run survived in the store's segment files.
	entries, err := os.ReadDir(storePath)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(storePath, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	if !bytes.Contains(all, []byte(`"state":"done"`)) {
		t.Fatalf("store missing finished run:\n%s", all)
	}
}

func mustStore(t *testing.T, path string) histdb.Store {
	t.Helper()
	st, err := histdb.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
