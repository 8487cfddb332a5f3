package server

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/ipc"
	"repro/internal/repl"
	"repro/internal/rule"
)

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestReplicaReadServer drives a read replica's server with the real
// client: reads answer at the replica's applied frontier, every write
// and rule operation is refused with the read-only error while the
// connection stays usable, and a promotion is answered before
// Promoted() closes.
func TestReplicaReadServer(t *testing.T) {
	eng, err := core.Open(core.Options{Dir: t.TempDir(), NoSync: true, Clock: clock.NewVirtual(epoch)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	tx := eng.Begin()
	if err := eng.DefineClass(tx, stockClass); err != nil {
		t.Fatal(err)
	}
	oid, err := eng.Create(tx, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX"), "price": datum.Float(48)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	prim := repl.NewPrimary(eng.Store, nil)
	pln := listen(t)
	go prim.Serve(pln)
	t.Cleanup(func() { prim.Close() })
	rep, err := repl.Open(repl.Options{Dir: t.TempDir(), PrimaryAddr: pln.Addr().String(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	if !rep.WaitApplied(eng.Store.WAL().End(), 10*time.Second) {
		t.Fatalf("replica never caught up: %+v", rep.Status())
	}
	applied := uint64(rep.AppliedLSN())

	srv := NewReplica(rep, func() (uint64, error) {
		at := uint64(rep.AppliedLSN())
		if _, err := rep.Promote(); err != nil {
			return 0, err
		}
		return at, nil
	})
	ln := listen(t)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c := dial(t, ln.Addr().String())

	rtx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	read := func() {
		t.Helper()
		obj, err := c.Get(rtx, oid)
		if err != nil || obj.Class != "Stock" || obj.Attrs["price"].AsFloat() != 48 {
			t.Fatalf("Get = %+v, %v", obj, err)
		}
	}
	read()
	res, err := c.Query(rtx, "select s.symbol from Stock s where s.price >= 40", nil)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "XRX" {
		t.Fatalf("Query = %+v, %v", res, err)
	}
	classes, err := c.Classes(rtx)
	if err != nil || len(classes) != 1 || classes[0].Name != "Stock" {
		t.Fatalf("Classes = %v, %v (system classes must be hidden)", classes, err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var stats struct{ Repl ipc.ReplStatusRep }
	if err := json.Unmarshal(st.Engine, &stats); err != nil || stats.Repl.Role != "replica" {
		t.Fatalf("Stats engine = %s (%v), want a replica Repl section", st.Engine, err)
	}
	if n := st.Obs.Hist["ipc_request"].Count; n == 0 {
		t.Fatal("the replica's requests are not timed into its ipc_request histogram")
	}
	if rs, err := c.ReplStatus(); err != nil || rs.Role != "replica" || rs.AppliedLSN < applied {
		t.Fatalf("ReplStatus = %+v, %v", rs, err)
	}

	writes := map[string]func() error{
		"Create": func() error {
			_, err := c.Create(rtx, "Stock", map[string]datum.Value{"symbol": datum.Str("IBM")})
			return err
		},
		"Modify": func() error {
			return c.Modify(rtx, oid, map[string]datum.Value{"price": datum.Float(1)})
		},
		"SignalEvent": func() error { return c.SignalEvent(nil, "Tick", nil) },
		"CreateRule": func() error {
			return c.CreateRule(rule.Def{Name: "r", Event: "modify(Stock)", EC: "immediate", CA: "immediate"})
		},
	}
	for name, write := range writes {
		if err := write(); err == nil || !strings.Contains(err.Error(), "read-only") {
			t.Fatalf("%s on a replica: err = %v, want the read-only error", name, err)
		}
		read()
	}
	if err := rtx.Commit(); err != nil {
		t.Fatal(err)
	}

	p, err := c.Promote()
	if err != nil || p.AppliedLSN != applied {
		t.Fatalf("Promote = %+v, %v; want applied LSN %d", p, err, applied)
	}
	select {
	case <-srv.Promoted():
	case <-time.After(5 * time.Second):
		t.Fatal("Promoted() not closed after an answered promotion")
	}
	if _, err := c.Promote(); err == nil {
		t.Fatal("second Promote succeeded")
	}
}
