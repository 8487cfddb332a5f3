package main

// Smoke test: build and run the real hipacd binary, connect a client,
// exercise a durable round trip, and shut it down cleanly.

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/datum"
	"repro/internal/object"
)

// buildHipacd compiles the daemon into a temp dir.
func buildHipacd(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "hipacd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr picks a free loopback port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startHipacd runs the daemon until the test ends.
func startHipacd(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	})
	return cmd
}

// eventually polls fn until it succeeds or ten seconds pass.
func eventually(t *testing.T, what string, fn func() error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := fn()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %v", what, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPromotedReplicaKeepsDaemonSettings: a replica promoted to
// primary must keep what the operator started the daemon with — the
// size-triggered checkpoints and the /metrics listener, now serving
// the engine's series.
func TestPromotedReplicaKeepsDaemonSettings(t *testing.T) {
	bin := buildHipacd(t)
	primAddr, replAddr, addr, metrics := freeAddr(t), freeAddr(t), freeAddr(t), freeAddr(t)
	startHipacd(t, bin, "-addr", primAddr, "-dir", t.TempDir(), "-nosync", "-repl-listen", replAddr)
	startHipacd(t, bin, "-addr", addr, "-dir", t.TempDir(), "-nosync", "-replica-of", replAddr,
		"-metrics", metrics, "-checkpoint-after-bytes", "4096")

	var c *client.Client
	eventually(t, "primary never came up", func() (err error) {
		c, err = client.Dial(primAddr)
		return err
	})
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineClass(tx, object.Class{
		Name:  "K",
		Attrs: []object.AttrDef{{Name: "v", Kind: datum.KindString}},
	}); err != nil {
		t.Fatal(err)
	}
	oid, err := c.Create(tx, "K", map[string]datum.Value{"v": datum.Str("shipped")})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Promote once the replica has applied the primary's commit.
	eventually(t, "replica never caught up", func() error {
		rc, err := client.Dial(addr)
		if err != nil {
			return err
		}
		defer rc.Close()
		rtx, err := rc.Begin()
		if err != nil {
			return err
		}
		defer rtx.Commit()
		if _, err := rc.Get(rtx, oid); err != nil {
			return err
		}
		_, err = rc.Promote()
		return err
	})

	// The promoted node takes writes on the same address...
	eventually(t, "promoted node never took a write", func() error {
		pc, err := client.Dial(addr)
		if err != nil {
			return err
		}
		defer pc.Close()
		for i := 0; i < 32; i++ { // ~32 KiB of WAL: several size triggers
			ptx, err := pc.Begin()
			if err != nil {
				return err
			}
			if _, err := pc.Create(ptx, "K", map[string]datum.Value{"v": datum.Str(strings.Repeat("x", 1024))}); err != nil {
				return err
			}
			if err := ptx.Commit(); err != nil {
				return err
			}
		}
		return nil
	})

	// ...serves the engine's metrics where the replica's were, and has
	// checkpointed by size.
	checkpoints := regexp.MustCompile(`(?m)^hipac_checkpoint_duration_seconds_count ([0-9]+)$`)
	eventually(t, "promoted node's /metrics", func() error {
		resp, err := http.Get("http://" + metrics + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if !strings.Contains(string(body), "hipac_store_top_commits_total") {
			return fmt.Errorf("no engine series in:\n%s", body)
		}
		if m := checkpoints.FindSubmatch(body); m == nil || string(m[1]) == "0" {
			return fmt.Errorf("no size-triggered checkpoint recorded: %s", m)
		}
		return nil
	})
}

func TestHipacdEndToEnd(t *testing.T) {
	bin := buildHipacd(t)
	addr := freeAddr(t)
	dir := t.TempDir()
	cmd := startHipacd(t, bin, "-addr", addr, "-dir", dir, "-nosync")

	var c *client.Client
	dial := func() (err error) {
		c, err = client.Dial(addr)
		return err
	}
	eventually(t, "server never came up", dial)

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineClass(tx, object.Class{
		Name:  "K",
		Attrs: []object.AttrDef{{Name: "v", Kind: datum.KindInt}},
	}); err != nil {
		t.Fatal(err)
	}
	oid, err := c.Create(tx, "K", map[string]datum.Value{"v": datum.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Graceful shutdown, then restart on the same directory: the data
	// must have survived in the WAL.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	startHipacd(t, bin, "-addr", addr, "-dir", dir, "-nosync")
	eventually(t, "restarted server never came up", dial)
	defer c.Close()
	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := c.Get(tx2, oid)
	if err != nil || obj.Attrs["v"].AsInt() != 7 {
		t.Fatalf("durable object after restart: %+v (%v)", obj, err)
	}
	tx2.Commit()
}
