package main

// End-to-end shell tests: drive the command dispatcher against a real
// in-process server and assert on the printed output.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datum"
	"repro/internal/rule"
	"repro/internal/server"
)

func newShell(t *testing.T) (*shell, *strings.Builder) {
	t.Helper()
	eng, err := core.Open(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		eng.Close()
	})
	var out strings.Builder
	return &shell{c: c, out: &out}, &out
}

func run(t *testing.T, sh *shell, lines ...string) {
	t.Helper()
	for _, line := range lines {
		if err := sh.exec(line); err != nil {
			t.Fatalf("exec(%q): %v", line, err)
		}
	}
}

func TestShellDataLifecycle(t *testing.T) {
	sh, out := newShell(t)
	run(t, sh,
		"class Stock symbol:string! price:float*",
		"classes",
		"create Stock symbol=XRX price=48.5",
		"select s.symbol, s.price from Stock s",
	)
	text := out.String()
	for _, want := range []string{"Stock", "symbol:string!", "price:float*", "created", `"XRX"`, "48.5", "(1 rows)"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestShellTransactions(t *testing.T) {
	sh, out := newShell(t)
	run(t, sh, "class C v:int", "begin")
	if sh.cur() == nil {
		t.Fatal("begin did not open a transaction")
	}
	run(t, sh, "create C v=1", "abort")
	if sh.cur() != nil {
		t.Fatal("abort did not pop the transaction")
	}
	run(t, sh, "select count(*) as n from C c")
	if !strings.Contains(out.String(), "0") {
		t.Fatalf("aborted create visible:\n%s", out.String())
	}
	// Nested: begin -> child -> commit -> commit.
	run(t, sh, "begin", "child", "create C v=2", "commit", "commit")
	out.Reset()
	run(t, sh, "select count(*) as n from C c")
	if !strings.Contains(out.String(), "1") {
		t.Fatalf("nested commit lost:\n%s", out.String())
	}
}

// TestShellPrompt: a transaction shows as "txn -" until its first
// request has begun it on the server.
func TestShellPrompt(t *testing.T) {
	sh, _ := newShell(t)
	run(t, sh, "class C v:int")
	if got := sh.prompt(); got != "hipac> " {
		t.Fatalf("prompt outside a transaction = %q", got)
	}
	run(t, sh, "begin")
	if got := sh.prompt(); got != "hipac[txn -]> " {
		t.Fatalf("prompt of an unused transaction = %q", got)
	}
	run(t, sh, "create C v=1")
	if got, want := sh.prompt(), fmt.Sprintf("hipac[txn %d]> ", sh.cur().ID); sh.cur().ID == 0 || got != want {
		t.Fatalf("prompt after the first request = %q, want %q", got, want)
	}
	run(t, sh, "commit")
}

func TestShellModifyGetDelete(t *testing.T) {
	sh, out := newShell(t)
	run(t, sh, "class C v:int", "create C v=1")
	// Extract the created OID from the output.
	text := out.String()
	idx := strings.Index(text, "created #")
	if idx < 0 {
		t.Fatalf("no oid in output: %s", text)
	}
	oid := strings.TrimSpace(text[idx+len("created "):])
	run(t, sh, "modify "+oid+" v=42", "get "+oid)
	if !strings.Contains(out.String(), "v=42") {
		t.Fatalf("modify lost:\n%s", out.String())
	}
	run(t, sh, "delete "+oid)
	if err := sh.exec("get " + oid); err == nil {
		t.Fatal("get after delete should fail")
	}
}

func TestShellRulesFromJSONFile(t *testing.T) {
	sh, out := newShell(t)
	run(t, sh, "class Stock symbol:string price:float",
		"class Audit note:string")
	def := rule.Def{
		Name:  "audit",
		Event: "modify(Stock)",
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Audit",
			Attrs: map[string]string{"note": "'hit'"}}},
		EC: "immediate", CA: "immediate",
	}
	raw, _ := json.Marshal(def)
	path := filepath.Join(t.TempDir(), "rule.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, sh, "rule "+path, "rules")
	if !strings.Contains(out.String(), "audit") || !strings.Contains(out.String(), "modify(Stock)") {
		t.Fatalf("rules listing:\n%s", out.String())
	}
	// Fire it through a data change and observe the audit row.
	run(t, sh, "create Stock symbol=XRX price=1")
	out.Reset()
	// Use the created OID via a query-driven modify: fetch OID first.
	run(t, sh, "select s from Stock s")
	line := out.String()
	oid := strings.TrimSpace(strings.Split(strings.Split(line, "\n")[1], "\t")[0])
	run(t, sh, "modify "+oid+" price=2")
	out.Reset()
	run(t, sh, "select count(*) as n from Audit a")
	if !strings.Contains(out.String(), "1") {
		t.Fatalf("rule did not fire:\n%s", out.String())
	}
	// Disable / enable / drop round trip.
	run(t, sh, "disable audit", "enable audit", "drop audit")
	out.Reset()
	run(t, sh, "rules")
	if strings.Contains(out.String(), "audit  ") {
		t.Fatalf("rule not dropped:\n%s", out.String())
	}
}

func TestShellEventsAndFire(t *testing.T) {
	sh, out := newShell(t)
	run(t, sh,
		"class Log note:string",
		"event Ping n",
	)
	def := rule.Def{
		Name:  "onping",
		Event: "external(Ping)",
		Action: []rule.Step{{Kind: rule.StepCreate, Class: "Log",
			Attrs: map[string]string{"note": "'ping'"}}},
		EC: "immediate", CA: "immediate",
	}
	raw, _ := json.Marshal(def)
	path := filepath.Join(t.TempDir(), "r.json")
	os.WriteFile(path, raw, 0o644)
	run(t, sh, "rule "+path,
		"begin", "signal Ping n=1", "commit")
	out.Reset()
	run(t, sh, "select count(*) as n from Log l")
	if !strings.Contains(out.String(), "1") {
		t.Fatalf("signal did not fire rule:\n%s", out.String())
	}
	// Manual fire (outside a txn it runs as a separate firing).
	run(t, sh, "begin", "fire onping", "commit")
	out.Reset()
	run(t, sh, "select count(*) as n from Log l")
	if !strings.Contains(out.String(), "2") {
		t.Fatalf("manual fire missing:\n%s", out.String())
	}
}

func TestShellGraphAndStats(t *testing.T) {
	sh, out := newShell(t)
	run(t, sh, "class Stock price:float")
	def := rule.Def{
		Name:      "g",
		Event:     "modify(Stock)",
		Condition: []string{"select s from Stock s where s.price > 5 and event.new_price >= 50"},
		Action:    []rule.Step{{Kind: rule.StepAbort}},
		EC:        "immediate", CA: "immediate",
	}
	raw, _ := json.Marshal(def)
	path := filepath.Join(t.TempDir(), "g.json")
	os.WriteFile(path, raw, 0o644)
	run(t, sh, "rule "+path, "graph")
	if !strings.Contains(out.String(), "s.price > 5") || !strings.Contains(out.String(), "guards: (event.new_price >= 50)") {
		t.Fatalf("graph output:\n%s", out.String())
	}
	// An update below the guard's limit is filtered, not fired.
	out.Reset()
	run(t, sh, "create Stock price=10")
	oid := strings.TrimSpace(strings.TrimPrefix(out.String(), "created "))
	run(t, sh, "modify "+oid+" price=20")
	out.Reset()
	run(t, sh, "stats")
	for _, want := range []string{"Rules", `"Filtered": 1`, `"Triggered": 0`, `"RowsScanned":`, "ipc_message_bytes",
		`"Queued": 0`, `"Overflowed": 0`, `"QueueDepth": 0`, "firing_queue_wait"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stats output lacks %s:\n%s", want, out.String())
		}
	}
	// One past the limit evaluates the condition (and the action aborts
	// the modify): the node now shows the plan it runs per signal.
	if err := sh.exec("modify " + oid + " price=60"); err == nil {
		t.Fatal("the rule's abort action did not fail the modify")
	}
	out.Reset()
	run(t, sh, "graph")
	if !strings.Contains(out.String(), "1. extent scan Stock as s") {
		t.Fatalf("graph output lacks the node's plan:\n%s", out.String())
	}
}

func TestShellErrors(t *testing.T) {
	sh, _ := newShell(t)
	for _, bad := range []string{
		"nonsense",
		"create",       // missing class
		"modify #1",    // missing assignment
		"get notanoid", // bad oid
		"class",        // missing name
		"class X attr", // bad attr spec
		"commit",       // no txn
		"child",        // no txn
		"rule /does/not/exist.json",
		"fire", // missing rule
	} {
		if err := sh.exec(bad); err == nil {
			t.Errorf("exec(%q) should fail", bad)
		}
	}
}

func TestValueParsing(t *testing.T) {
	cases := map[string]datum.Value{
		"42":    datum.Int(42),
		"4.5":   datum.Float(4.5),
		"true":  datum.Bool(true),
		"false": datum.Bool(false),
		"null":  datum.Null(),
		"#7":    datum.ID(7),
		"hello": datum.Str("hello"),
		"'q'":   datum.Str("q"),
	}
	for raw, want := range cases {
		if got := parseValue(raw); !datum.Equal(got, want) && !(got.IsNull() && want.IsNull()) {
			t.Errorf("parseValue(%q) = %v, want %v", raw, got, want)
		}
	}
}
