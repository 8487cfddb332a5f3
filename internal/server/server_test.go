package server

// End-to-end tests of the Figure 4.1 interface over real TCP
// connections (experiment F4.1): all four interface modules, the
// role-reversed application operations, and multi-client interaction
// through rules only.

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/rule"
)

var epoch = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	eng, err := core.Open(core.Options{Clock: clock.NewVirtual(epoch)})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

var stockClass = object.Class{
	Name: "Stock",
	Attrs: []object.AttrDef{
		{Name: "symbol", Kind: datum.KindString, Required: true},
		{Name: "price", Kind: datum.KindFloat, Indexed: true},
	},
}

func TestDataAndTransactionOperations(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineClass(tx, stockClass); err != nil {
		t.Fatal(err)
	}
	oid, err := c.Create(tx, "Stock", map[string]datum.Value{
		"symbol": datum.Str("XRX"), "price": datum.Float(48),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Modify(tx, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
		t.Fatal(err)
	}
	obj, err := c.Get(tx, oid)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Class != "Stock" || obj.Attrs["price"].AsFloat() != 50 {
		t.Fatalf("obj = %+v", obj)
	}
	res, err := c.Query(tx, "select s.symbol from Stock s where s.price >= 50", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "XRX" {
		t.Fatalf("rows = %v", res.Rows)
	}
	classes, err := c.Classes(tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 1 || classes[0].Name != "Stock" {
		t.Fatalf("classes = %v (system classes must be hidden)", classes)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// What Get returned is the client's own: writing it changes nothing
	// a later Get reads.
	obj.Attrs["price"] = datum.Float(-1)
	delete(obj.Attrs, "symbol")
	// Abort works too.
	tx2, _ := c.Begin()
	c.Modify(tx2, oid, map[string]datum.Value{"price": datum.Float(99)})
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	tx3, _ := c.Begin()
	obj, _ = c.Get(tx3, oid)
	if obj.Attrs["price"].AsFloat() != 50 || obj.Attrs["symbol"].AsString() != "XRX" {
		t.Fatalf("abort did not roll back, or the client's write reached the store: %v", obj.Attrs)
	}
	tx3.Commit()
}

func TestNestedTransactionsOverIPC(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	tx, _ := c.Begin()
	if err := c.DefineClass(tx, stockClass); err != nil {
		t.Fatal(err)
	}
	child, err := tx.Child()
	if err != nil {
		t.Fatal(err)
	}
	oid, err := c.Create(child, "Stock", map[string]datum.Value{"symbol": datum.Str("IBM")})
	if err != nil {
		t.Fatal(err)
	}
	// Parent is suspended while the child is active.
	if _, err := c.Create(tx, "Stock", map[string]datum.Value{"symbol": datum.Str("NO")}); err == nil {
		t.Fatal("suspended parent accepted an operation")
	}
	if err := child.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(tx, oid); err != nil {
		t.Fatalf("parent cannot see child's committed effect: %v", err)
	}
	tx.Commit()
}

func TestRuleOperationsOverIPC(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	tx, _ := c.Begin()
	c.DefineClass(tx, stockClass)
	c.DefineClass(tx, object.Class{Name: "Audit", Attrs: []object.AttrDef{
		{Name: "price", Kind: datum.KindFloat}}})
	tx.Commit()

	if err := c.CreateRule(rule.Def{
		Name:  "audit",
		Event: "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"price": "event.new_price"}}},
		EC: "immediate", CA: "immediate",
	}); err != nil {
		t.Fatal(err)
	}
	rules, err := c.Rules()
	if err != nil || len(rules) != 1 {
		t.Fatalf("rules = %v (%v)", rules, err)
	}
	if rules[0].Name != "audit" || rules[0].Event != "modify(Stock)" || !rules[0].Enabled {
		t.Fatalf("rule info = %+v", rules[0])
	}

	tx2, _ := c.Begin()
	oid, _ := c.Create(tx2, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX")})
	c.Modify(tx2, oid, map[string]datum.Value{"price": datum.Float(50)})
	res, _ := c.Query(tx2, "select count(*) as n from Audit a", nil)
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatal("rule did not fire over IPC")
	}
	tx2.Commit()

	if err := c.DisableRule("audit"); err != nil {
		t.Fatal(err)
	}
	rules, _ = c.Rules()
	if rules[0].Enabled {
		t.Fatal("disable not reflected")
	}
	if err := c.EnableRule("audit"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteRule("audit"); err != nil {
		t.Fatal(err)
	}
	if rules, _ := c.Rules(); len(rules) != 0 {
		t.Fatal("rule not deleted")
	}
}

func TestFigure41ApplicationOperations(t *testing.T) {
	// The full role reversal: a rule action requests an operation
	// served by a connected application program.
	_, addr := startServer(t)
	producer := dial(t, addr)
	display := dial(t, addr)

	var mu sync.Mutex
	var quotes []float64
	if err := display.Serve(map[string]client.Handler{
		"display_quote": func(args map[string]datum.Value) (map[string]datum.Value, error) {
			mu.Lock()
			quotes = append(quotes, args["price"].AsFloat())
			mu.Unlock()
			return map[string]datum.Value{"ack": datum.Bool(true)}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	tx, _ := producer.Begin()
	producer.DefineClass(tx, stockClass)
	tx.Commit()
	if err := producer.CreateRule(rule.Def{
		Name:  "ticker-window",
		Event: "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepRequest, Op: "display_quote",
			Args: map[string]string{"price": "event.new_price"}}},
		EC: "immediate", CA: "immediate",
	}); err != nil {
		t.Fatal(err)
	}

	tx2, _ := producer.Begin()
	oid, _ := producer.Create(tx2, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX")})
	if err := producer.Modify(tx2, oid, map[string]datum.Value{"price": datum.Float(50)}); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()

	mu.Lock()
	defer mu.Unlock()
	if len(quotes) != 1 || quotes[0] != 50 {
		t.Fatalf("display received %v", quotes)
	}
}

func TestExternalEventsOverIPC(t *testing.T) {
	_, addr := startServer(t)
	a := dial(t, addr)
	b := dial(t, addr)

	if err := a.DefineEvent("Ping", "n"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []int64
	if err := b.Serve(map[string]client.Handler{
		"pong": func(args map[string]datum.Value) (map[string]datum.Value, error) {
			mu.Lock()
			got = append(got, args["n"].AsInt())
			mu.Unlock()
			return nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.CreateRule(rule.Def{
		Name:  "ping-pong",
		Event: "external(Ping)",
		Action: []rule.Step{{Kind: rule.StepRequest, Op: "pong",
			Args: map[string]string{"n": "event.n"}}},
		EC: "immediate", CA: "immediate",
	}); err != nil {
		t.Fatal(err)
	}
	// Signal outside any transaction.
	if err := a.SignalEvent(nil, "Ping", map[string]datum.Value{"n": datum.Int(7)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pong never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	if got[0] != 7 {
		t.Fatalf("got %v", got)
	}
	mu.Unlock()
	// Undefined events are rejected remotely too.
	if err := a.SignalEvent(nil, "Undefined", nil); err == nil {
		t.Fatal("undefined event accepted")
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	tx, _ := c.Begin()
	if _, err := c.Create(tx, "NoSuchClass", nil); err == nil ||
		!strings.Contains(err.Error(), "no such class") {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Query(tx, "syntactically wrong", nil); err == nil {
		t.Fatal("bad query accepted")
	}
	tx.Commit()
	if err := tx.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
}

func TestClientDisconnectAbortsItsTransactions(t *testing.T) {
	_, addr := startServer(t)
	setup := dial(t, addr)
	tx, _ := setup.Begin()
	setup.DefineClass(tx, stockClass)
	tx.Commit()

	dying, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	dtx, _ := dying.Begin()
	oid, err := dying.Create(dtx, "Stock", map[string]datum.Value{"symbol": datum.Str("GONE")})
	if err != nil {
		t.Fatal(err)
	}
	dying.Close() // abrupt disconnect; dtx never committed

	// The object must not survive, and its locks must be freed so
	// others can proceed.
	deadline := time.Now().Add(2 * time.Second)
	for {
		check, _ := setup.Begin()
		_, err := setup.Get(check, oid)
		check.Commit()
		if err != nil && strings.Contains(err.Error(), "no such object") {
			return // aborted as expected
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnected client's transaction not aborted (err=%v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAppCallWithNoServerFails(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	tx, _ := c.Begin()
	c.DefineClass(tx, stockClass)
	tx.Commit()
	c.CreateRule(rule.Def{
		Name:  "needs-app",
		Event: "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepRequest, Op: "nobody_serves_this",
			Args: map[string]string{}}},
		EC: "immediate", CA: "immediate",
	})
	tx2, _ := c.Begin()
	oid, _ := c.Create(tx2, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX")})
	err := c.Modify(tx2, oid, map[string]datum.Value{"price": datum.Float(1)})
	if err == nil || !strings.Contains(err.Error(), "nobody_serves_this") {
		t.Fatalf("err = %v", err)
	}
	tx2.Abort()
}

// TestAnsweredAppCallsRetainNothing: an application call that was
// answered must leave nothing behind on the server — in particular not
// its CallTimeout timer, which under go 1.22 timer semantics stays
// live until it fires unless stopped.
func TestAnsweredAppCallsRetainNothing(t *testing.T) {
	srv, addr := startServer(t)
	app := dial(t, addr)
	if err := app.Serve(map[string]client.Handler{
		"echo": func(args map[string]datum.Value) (map[string]datum.Value, error) { return args, nil },
	}); err != nil {
		t.Fatal(err)
	}
	calls := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := srv.Dispatch("echo", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	heapObjects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	calls(100) // grow the connections' buffers before the baseline
	const n = 10_000
	before := heapObjects()
	calls(n)
	if after := heapObjects(); after >= before+n {
		t.Fatalf("%d answered calls left %d heap objects behind", n, after-before)
	}
}

func TestRoundRobinAcrossServers(t *testing.T) {
	_, addr := startServer(t)
	ctl := dial(t, addr)
	tx, _ := ctl.Begin()
	ctl.DefineClass(tx, stockClass)
	tx.Commit()

	counts := make([]int, 2)
	var mu sync.Mutex
	for i := 0; i < 2; i++ {
		i := i
		worker := dial(t, addr)
		if err := worker.Serve(map[string]client.Handler{
			"work": func(map[string]datum.Value) (map[string]datum.Value, error) {
				mu.Lock()
				counts[i]++
				mu.Unlock()
				return nil, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctl.CreateRule(rule.Def{
		Name:   "distribute",
		Event:  "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepRequest, Op: "work", Args: map[string]string{}}},
		EC:     "immediate", CA: "immediate",
	})
	tx2, _ := ctl.Begin()
	oid, _ := ctl.Create(tx2, "Stock", map[string]datum.Value{"symbol": datum.Str("XRX")})
	for i := 0; i < 6; i++ {
		if err := ctl.Modify(tx2, oid, map[string]datum.Value{"price": datum.Float(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	tx2.Commit()
	mu.Lock()
	defer mu.Unlock()
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("round robin counts = %v", counts)
	}
}

func TestGraphIntrospectionOverIPC(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	tx, _ := c.Begin()
	c.DefineClass(tx, stockClass)
	tx.Commit()
	shared := "select s from Stock s where s.price >= 100"
	for i := 0; i < 3; i++ {
		if err := c.CreateRule(rule.Def{
			Name:      fmt.Sprintf("g%d", i),
			Event:     "modify(Stock)",
			Condition: []string{shared},
			Action: []rule.Step{{Kind: rule.StepCreate, Class: "Stock",
				Attrs: map[string]string{"symbol": "'x'"}}},
			EC: "immediate", CA: "immediate", Disabled: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	nodes, err := c.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].Refs != 3 {
		t.Fatalf("graph = %+v", nodes)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	setup := dial(t, addr)
	tx, _ := setup.Begin()
	setup.DefineClass(tx, stockClass)
	tx.Commit()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				tx, err := c.Begin()
				if err != nil {
					errs <- err
					return
				}
				if _, err := c.Create(tx, "Stock", map[string]datum.Value{
					"symbol": datum.Str(fmt.Sprintf("W%dI%d", w, i)),
				}); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check, _ := setup.Begin()
	res, err := setup.Query(check, "select count(*) as n from Stock s", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 160 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	check.Commit()
}

func TestDropClassAndUpdateRuleOverIPC(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	tx, _ := c.Begin()
	if err := c.DefineClass(tx, stockClass); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineClass(tx, object.Class{Name: "Temp",
		Attrs: []object.AttrDef{{Name: "x", Kind: datum.KindInt}}}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	// DropClass round trip.
	tx2, _ := c.Begin()
	if err := c.DropClass(tx2, "Temp"); err != nil {
		t.Fatal(err)
	}
	tx2.Commit()
	tx3, _ := c.Begin()
	classes, err := c.Classes(tx3)
	if err != nil {
		t.Fatal(err)
	}
	tx3.Commit()
	for _, cls := range classes {
		if cls.Name == "Temp" {
			t.Fatal("dropped class still listed")
		}
	}

	// UpdateRule round trip.
	if err := c.CreateRule(rule.Def{
		Name:  "watch",
		Event: "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Stock",
			Attrs: map[string]string{"symbol": "'echo'"}}},
		EC: "immediate", CA: "immediate", Disabled: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateRule(rule.Def{
		Name:  "watch",
		Event: "create(Stock)",
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Stock",
			Attrs: map[string]string{"symbol": "'echo'"}}},
		EC: "immediate", CA: "immediate", Disabled: true,
	}); err != nil {
		t.Fatal(err)
	}
	rules, err := c.Rules()
	if err != nil || len(rules) != 1 {
		t.Fatalf("rules = %v (%v)", rules, err)
	}
	if rules[0].Event != "create(Stock)" {
		t.Fatalf("updated event = %q", rules[0].Event)
	}
	if err := c.UpdateRule(rule.Def{Name: "missing", Event: "commit()"}); err == nil {
		t.Fatal("update of unknown rule accepted over IPC")
	}
}

func TestCheckpointOverIPC(t *testing.T) {
	dir := t.TempDir()
	eng, err := core.Open(core.Options{Dir: dir, NoSync: true, Clock: clock.NewVirtual(epoch)})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	c := dial(t, ln.Addr().String())

	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineClass(tx, stockClass); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(tx, "Stock", map[string]datum.Value{
		"symbol": datum.Str("XRX"), "price": datum.Float(48),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reclaimed == 0 {
		t.Fatal("checkpoint over ipc reclaimed no WAL bytes")
	}
	if rep.Kind != "full" {
		t.Fatalf("first checkpoint kind = %q, want full", rep.Kind)
	}
	// A second checkpoint with nothing new to cover reclaims nothing.
	again, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if again.Reclaimed != 0 {
		t.Fatalf("idle checkpoint reclaimed %d bytes", again.Reclaimed)
	}
	if again.Kind != "delta" || again.Records != 0 {
		t.Fatalf("idle checkpoint = %+v, want empty delta", again)
	}
}
