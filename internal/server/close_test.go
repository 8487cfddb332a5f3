package server

import (
	"net"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// TestCloseBeforeServe: a server closed before Serve runs must not
// start accepting — Serve returns at once and closes the listener —
// and a second Close is a no-op.
func TestCloseBeforeServe(t *testing.T) {
	eng, err := core.Open(core.Options{Clock: clock.NewVirtual(epoch)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := New(eng)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln := listen(t)
	defer ln.Close()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve still accepting 2s after Close")
	}
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		c.Close()
		t.Fatal("the listener still accepts connections")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
