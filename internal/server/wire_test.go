package server

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/repl"
	"repro/internal/rule"
)

// TestWireCarriesEveryValue: every value the engine stores crosses the
// wire bit for bit — NaN, both infinities, negative zero, a string that
// is not UTF-8, nested lists, times and OIDs — through Modify, Get, a
// query row, a signal's arguments and the application call a rule
// action makes with them.
func TestWireCarriesEveryValue(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	app := dial(t, addr)

	vals := map[string]datum.Value{
		"nan":   datum.Float(math.NaN()),
		"inf":   datum.Float(math.Inf(1)),
		"ninf":  datum.Float(math.Inf(-1)),
		"nzero": datum.Float(math.Copysign(0, -1)),
		"s":     datum.Str("a\xffb"),
		"l":     datum.List(datum.Int(1), datum.List(datum.Str("\xc3"), datum.Null()), datum.Bool(true)),
		"tm":    datum.Time(time.Date(2026, 7, 6, 9, 0, 0, 123, time.UTC)),
		"o":     datum.ID(1 << 40),
	}
	names := []string{"nan", "inf", "ninf", "nzero", "s", "l", "tm", "o"}
	cls := object.Class{Name: "V"}
	params := make([]string, len(names))
	args := map[string]string{}
	for i, n := range names {
		cls.Attrs = append(cls.Attrs, object.AttrDef{Name: n, Kind: vals[n].Kind()})
		params[i] = n
		args[n] = "event." + n
	}
	same := func(what string, got, want datum.Value) {
		t.Helper()
		if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Errorf("%s: got %v, want %v", what, got, want)
		}
	}

	sunk := make(chan map[string]datum.Value, 1)
	if err := app.Serve(map[string]client.Handler{
		"sink": func(a map[string]datum.Value) (map[string]datum.Value, error) {
			sunk <- a
			return a, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	tx, _ := c.Begin()
	if err := c.DefineClass(tx, cls); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineEvent("Every", params...); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRule(rule.Def{Name: "sink-all", Event: "external(Every)",
		Action: []rule.Step{{Kind: rule.StepRequest, Op: "sink", Args: args}},
		EC:     "immediate", CA: "immediate"}); err != nil {
		t.Fatal(err)
	}
	oid, err := c.Create(tx, "V", map[string]datum.Value{"s": datum.Str("plain")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Modify(tx, oid, vals); err != nil {
		t.Fatal(err)
	}
	obj, err := c.Get(tx, oid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(tx, "select v.nan, v.inf, v.ninf, v.nzero, v.s, v.l, v.tm, v.o from V v", nil)
	if err != nil || len(res.Rows) != 1 || len(res.Rows[0]) != len(names) {
		t.Fatalf("query = %+v, %v", res, err)
	}
	for i, n := range names {
		same("Get "+n, obj.Attrs[n], vals[n])
		same("query "+n, res.Rows[0][i], vals[n])
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := c.SignalEvent(nil, "Every", vals); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-sunk:
		for _, n := range names {
			same("application call "+n, got[n], vals[n])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the rule's application call never arrived")
	}
}

// TestWireAllocations bounds the heap allocations of one client Get
// round trip — client and server together — against a server session
// over net.Pipe. The round trip measured 24 allocations (25 under
// -race) on go1.24 linux/amd64, against 86 with the JSON wire the
// binary one replaced.
func TestWireAllocations(t *testing.T) {
	srv, _ := startServer(t)
	a, b := net.Pipe()
	go newSession(srv, b).run()
	c := client.NewClient(a)
	t.Cleanup(func() { c.Close() })

	tx, _ := c.Begin()
	if err := c.DefineClass(tx, stockClass); err != nil {
		t.Fatal(err)
	}
	oid, err := c.Create(tx, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX"), "price": datum.Float(48)})
	if err != nil {
		t.Fatal(err)
	}
	get := func() {
		if _, err := c.Get(tx, oid); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		get()
	}
	const bound = 32
	if allocs := testing.AllocsPerRun(500, get); allocs > bound {
		t.Errorf("a Get round trip allocates %.1f times, bound %d", allocs, bound)
	} else {
		t.Logf("a Get round trip allocates %.1f times", allocs)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// requests returns how many requests the server has answered.
func requests(srv *Server) uint64 { return srv.obs.Snapshot().Hist["ipc_request"].Count }

// openTxns returns how many transactions the server's sessions hold.
func openTxns(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	n := 0
	for sess := range srv.sessions {
		sess.mu.Lock()
		n += len(sess.txns)
		sess.mu.Unlock()
	}
	return n
}

// TestBeginRidesOnFirstRequest: Begin sends nothing; the first request
// in the transaction begins it on the server, which names it in the
// reply even when the request fails; a transaction never used commits
// and aborts without a request; a child of a parent not begun yet
// begins both; concurrent first requests begin one transaction.
func TestBeginRidesOnFirstRequest(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)

	before := requests(srv)
	unused, err := c.Begin()
	if err != nil || unused.ID != 0 {
		t.Fatalf("Begin = %+v, %v; want a transaction not yet named", unused, err)
	}
	if err := unused.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := unused.Commit(); err == nil {
		t.Fatal("a second commit of an unused transaction succeeded")
	}
	if err := c.DefineClass(unused, stockClass); err == nil {
		t.Fatal("a request in a committed transaction succeeded")
	}
	aborted, _ := c.Begin()
	if err := aborted.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := requests(srv); got != before {
		t.Fatalf("unused transactions cost %d requests", got-before)
	}

	tx, _ := c.Begin()
	if _, err := c.Create(tx, "Stock", nil); err == nil || tx.ID == 0 {
		t.Fatalf("failed first request: err %v, ID %d; want an error and a named transaction", err, tx.ID)
	}
	if err := c.DefineClass(tx, stockClass); err != nil {
		t.Fatal(err)
	}
	oid, err := c.Create(tx, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX")})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	parent, _ := c.Begin()
	child, err := parent.Child()
	if err != nil || parent.ID == 0 || child.ID == 0 || child.ID == parent.ID {
		t.Fatalf("Child of an unbegun parent: parent %d, child %+v, %v", parent.ID, child, err)
	}
	if err := c.Modify(child, oid, map[string]datum.Value{"price": datum.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := parent.Commit(); err != nil {
		t.Fatal(err)
	}

	shared, _ := c.Begin()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Get(shared, oid); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := openTxns(srv); n != 1 {
		t.Fatalf("concurrent first requests left %d transactions open, want 1", n)
	}
	if err := shared.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := openTxns(srv); n != 0 {
		t.Fatalf("%d transactions left open", n)
	}
	if st, err := c.Stats(); err != nil || st.Obs.Hist["ipc_message_bytes"].Count == 0 {
		t.Fatalf("ipc_message_bytes not recorded: %v", err)
	}
}

// TestReplicaBeginErrorOnFirstRequest: a replica that cannot begin a
// transaction yet refuses the first request in it, not Begin.
func TestReplicaBeginErrorOnFirstRequest(t *testing.T) {
	gone := listen(t)
	gone.Close() // a primary that never answers
	rep, err := repl.Open(repl.Options{Dir: t.TempDir(), PrimaryAddr: gone.Addr().String(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	srv := NewReplica(rep, nil)
	ln := listen(t)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c := dial(t, ln.Addr().String())

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(tx, 1); !strings.Contains(fmt.Sprint(err), "bootstrapping") || tx.ID != 0 {
		t.Fatalf("Get on a replica with no store: %v (ID %d), want the bootstrapping error", err, tx.ID)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
