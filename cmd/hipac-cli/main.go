// Command hipac-cli is an interactive shell for a HiPAC server.
//
// Usage:
//
//	hipac-cli [-addr 127.0.0.1:4815]
//	hipac-cli snapshot inspect <path>
//
// The second form is offline: it inspects a snapshot or delta file
// from a durability directory without connecting to a server —
// printing kind (full/delta), watermark, parent chain link, class
// statistics, record count, and CRC status.
//
// Commands (one per line):
//
//	begin                          start a transaction (becomes current)
//	child                          start a subtransaction of the current one
//	commit | abort                 finish the current transaction
//	class <Name> <attr>:<kind>[!][*] ...   define a class (!=required, *=indexed)
//	classes                        list classes
//	create <Class> <attr>=<value> ...      create an object
//	modify <#oid> <attr>=<value> ...       update an object
//	delete <#oid>                  delete an object
//	get <#oid>                     show an object
//	select ...                     run a query (whole line)
//	explain select ...             show the query's physical plan
//	                               (parallel steps print parallel=N)
//	event <Name> [param ...]       define an external event
//	signal <Name> <param>=<value> ...      signal an external event
//	rule <file.json>               create a rule from a JSON definition
//	rules                          list rules
//	enable|disable|drop <rule>     manage a rule
//	fire <rule> [<param>=<value> ...]      fire a rule manually
//	stats                          engine counters + latency histograms
//	trace last [n]                 show the newest n firing trees
//	snapshot inspect <path>        inspect a local snapshot/delta file
//	help                           this text
//	quit
//
// Values parse as int, float, true/false, #oid, or string.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/datum"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rule"
	"repro/internal/storage"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4815", "server address")
	flag.Parse()

	// Offline verbs read local files directly — no server needed, so
	// they work on a cold durability directory (e.g. post-crash
	// forensics before deciding to restart the daemon).
	if args := flag.Args(); len(args) > 0 && args[0] == "snapshot" {
		if err := runSnapshot(os.Stdout, args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "hipac-cli: %v\n", err)
			os.Exit(1)
		}
		return
	}

	c, err := client.Dial(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hipac-cli: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()
	fmt.Printf("connected to %s; 'help' for commands\n", *addr)

	sh := &shell{c: c, out: os.Stdout}
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print(sh.prompt())
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if err := sh.exec(line); err != nil {
			fmt.Fprintf(os.Stdout, "error: %v\n", err)
		}
	}
}

type shell struct {
	c   *client.Client
	out io.Writer
	// txnStack holds the current transaction lineage; commands that
	// need a transaction use the top and auto-begin when empty.
	txnStack []*client.Txn
}

func (s *shell) prompt() string {
	if len(s.txnStack) == 0 {
		return "hipac> "
	}
	// The server names a transaction in the reply to its first request.
	if id := s.cur().ID; id != 0 {
		return fmt.Sprintf("hipac[txn %d]> ", id)
	}
	return "hipac[txn -]> "
}

func (s *shell) cur() *client.Txn {
	if len(s.txnStack) == 0 {
		return nil
	}
	return s.txnStack[len(s.txnStack)-1]
}

// withTxn returns the current transaction, or runs fn inside a
// one-shot transaction when none is open.
func (s *shell) withTxn(fn func(tx *client.Txn) error) error {
	if tx := s.cur(); tx != nil {
		return fn(tx)
	}
	tx, err := s.c.Begin()
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func (s *shell) exec(line string) error {
	fields := strings.Fields(line)
	cmd := fields[0]
	args := fields[1:]
	switch cmd {
	case "help":
		fmt.Fprintln(s.out, helpText)
		return nil

	case "begin":
		tx, err := s.c.Begin()
		if err != nil {
			return err
		}
		s.txnStack = append(s.txnStack, tx)
		return nil

	case "child":
		tx := s.cur()
		if tx == nil {
			return fmt.Errorf("no open transaction")
		}
		child, err := tx.Child()
		if err != nil {
			return err
		}
		s.txnStack = append(s.txnStack, child)
		return nil

	case "commit", "abort":
		tx := s.cur()
		if tx == nil {
			return fmt.Errorf("no open transaction")
		}
		s.txnStack = s.txnStack[:len(s.txnStack)-1]
		if cmd == "commit" {
			return tx.Commit()
		}
		return tx.Abort()

	case "class":
		if len(args) < 1 {
			return fmt.Errorf("usage: class <Name> <attr>:<kind>[!][*] ...")
		}
		cls := object.Class{Name: args[0]}
		for _, spec := range args[1:] {
			ad, err := parseAttrDef(spec)
			if err != nil {
				return err
			}
			cls.Attrs = append(cls.Attrs, ad)
		}
		return s.withTxn(func(tx *client.Txn) error { return s.c.DefineClass(tx, cls) })

	case "classes":
		return s.withTxn(func(tx *client.Txn) error {
			classes, err := s.c.Classes(tx)
			if err != nil {
				return err
			}
			for _, cls := range classes {
				var parts []string
				for _, a := range cls.Attrs {
					p := a.Name + ":" + a.Kind.String()
					if a.Required {
						p += "!"
					}
					if a.Indexed {
						p += "*"
					}
					parts = append(parts, p)
				}
				fmt.Fprintf(s.out, "%-16s %s\n", cls.Name, strings.Join(parts, " "))
			}
			return nil
		})

	case "create":
		if len(args) < 1 {
			return fmt.Errorf("usage: create <Class> <attr>=<value> ...")
		}
		attrs, err := parseAssignments(args[1:])
		if err != nil {
			return err
		}
		return s.withTxn(func(tx *client.Txn) error {
			oid, err := s.c.Create(tx, args[0], attrs)
			if err != nil {
				return err
			}
			fmt.Fprintf(s.out, "created %v\n", oid)
			return nil
		})

	case "modify":
		if len(args) < 2 {
			return fmt.Errorf("usage: modify <#oid> <attr>=<value> ...")
		}
		oid, err := parseOID(args[0])
		if err != nil {
			return err
		}
		attrs, err := parseAssignments(args[1:])
		if err != nil {
			return err
		}
		return s.withTxn(func(tx *client.Txn) error { return s.c.Modify(tx, oid, attrs) })

	case "delete":
		if len(args) != 1 {
			return fmt.Errorf("usage: delete <#oid>")
		}
		oid, err := parseOID(args[0])
		if err != nil {
			return err
		}
		return s.withTxn(func(tx *client.Txn) error { return s.c.Delete(tx, oid) })

	case "get":
		if len(args) != 1 {
			return fmt.Errorf("usage: get <#oid>")
		}
		oid, err := parseOID(args[0])
		if err != nil {
			return err
		}
		return s.withTxn(func(tx *client.Txn) error {
			obj, err := s.c.Get(tx, oid)
			if err != nil {
				return err
			}
			fmt.Fprintf(s.out, "%v %s %s\n", obj.OID, obj.Class, formatAttrs(obj.Attrs))
			return nil
		})

	case "select":
		return s.withTxn(func(tx *client.Txn) error {
			res, err := s.c.Query(tx, line, nil)
			if err != nil {
				return err
			}
			fmt.Fprintln(s.out, strings.Join(res.Columns, "\t"))
			for _, row := range res.Rows {
				parts := make([]string, len(row))
				for i, v := range row {
					parts[i] = v.String()
				}
				fmt.Fprintln(s.out, strings.Join(parts, "\t"))
			}
			fmt.Fprintf(s.out, "(%d rows)\n", len(res.Rows))
			return nil
		})

	case "explain":
		if len(args) == 0 {
			return fmt.Errorf("usage: explain select ...")
		}
		src := strings.TrimSpace(strings.TrimPrefix(line, "explain"))
		return s.withTxn(func(tx *client.Txn) error {
			text, err := s.c.Explain(tx, src, nil)
			if err != nil {
				return err
			}
			fmt.Fprint(s.out, text)
			return nil
		})

	case "event":
		if len(args) < 1 {
			return fmt.Errorf("usage: event <Name> [param ...]")
		}
		return s.c.DefineEvent(args[0], args[1:]...)

	case "signal":
		if len(args) < 1 {
			return fmt.Errorf("usage: signal <Name> <param>=<value> ...")
		}
		sigArgs, err := parseAssignments(args[1:])
		if err != nil {
			return err
		}
		return s.c.SignalEvent(s.cur(), args[0], sigArgs)

	case "rule", "replace":
		if len(args) != 1 {
			return fmt.Errorf("usage: %s <file.json>", cmd)
		}
		raw, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		var def rule.Def
		if err := json.Unmarshal(raw, &def); err != nil {
			return fmt.Errorf("parse %s: %w", args[0], err)
		}
		if cmd == "replace" {
			return s.c.UpdateRule(def)
		}
		return s.c.CreateRule(def)

	case "rules":
		rules, err := s.c.Rules()
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%-24s %-32s %-10s %-10s %s\n", "NAME", "EVENT", "E-C", "C-A", "ENABLED")
		for _, r := range rules {
			fmt.Fprintf(s.out, "%-24s %-32s %-10s %-10s %v\n", r.Name, r.Event, r.EC, r.CA, r.Enabled)
		}
		return nil

	case "enable":
		return oneArg(args, "enable <rule>", s.c.EnableRule)
	case "disable":
		return oneArg(args, "disable <rule>", s.c.DisableRule)
	case "drop":
		return oneArg(args, "drop <rule>", s.c.DeleteRule)

	case "graph":
		nodes, err := s.c.Graph()
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%-5s %s\n", "REFS", "QUERY")
		for _, n := range nodes {
			fmt.Fprintf(s.out, "%-5d %s\n", n.Refs, n.Query)
			if len(n.Guards) > 0 {
				// Tested at signal time: a false one skips the firing.
				fmt.Fprintf(s.out, "%-5s guards: %s\n", "", strings.Join(n.Guards, ", "))
			}
			if n.Plan != "" { // what the node runs per signal
				fmt.Fprintf(s.out, "%6s%s\n", "", strings.ReplaceAll(strings.TrimSpace(n.Plan), "\n", "\n      "))
			}
		}
		return nil

	case "stats":
		rep, err := s.c.Stats()
		if err != nil {
			return err
		}
		var pretty map[string]any
		if err := json.Unmarshal(rep.Engine, &pretty); err != nil {
			return err
		}
		out, _ := json.MarshalIndent(pretty, "", "  ")
		fmt.Fprintln(s.out, string(out))
		printRuleFirings(s.out, rep.Engine)
		printObs(s.out, rep.Obs)
		return nil

	case "checkpoint":
		rep, err := s.c.Checkpoint()
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%s checkpoint complete, %d records, %d wal bytes reclaimed\n",
			rep.Kind, rep.Records, rep.Reclaimed)
		return nil

	case "repl-status":
		rep, err := s.c.ReplStatus()
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "role:  %s\n", rep.Role)
		switch rep.Role {
		case "replica":
			fmt.Fprintf(s.out, "primary:     %s\n", rep.Primary)
			fmt.Fprintf(s.out, "state:       %s\n", rep.State)
			fmt.Fprintf(s.out, "applied lsn: %d (generation %d)\n", rep.AppliedLSN, rep.Generation)
			fmt.Fprintf(s.out, "primary lsn: %d (lag %d bytes, last batch %.3fms behind)\n",
				rep.FlushedLSN, rep.LagBytes, float64(rep.LagNanos)/1e6)
			fmt.Fprintf(s.out, "batches:     %d applied, %d reconnects, %d bootstraps\n",
				rep.Batches, rep.Reconnects, rep.Bootstraps)
		default:
			fmt.Fprintf(s.out, "flushed lsn: %d\n", rep.FlushedLSN)
			fmt.Fprintf(s.out, "followers:   %d attached, %d batches shipped, %d resyncs served\n",
				rep.Connections, rep.Batches, rep.Bootstraps)
		}
		return nil

	case "promote":
		rep, err := s.c.Promote()
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "promoted at applied lsn %d; the node is restarting as a writable primary\n",
			rep.AppliedLSN)
		return nil

	case "snapshot":
		// Local file inspection; useful alongside a live session when
		// the durability directory is on the same host.
		return runSnapshot(s.out, args)

	case "trace":
		// trace last [n] — show the newest n finished firing trees.
		n := 1
		if len(args) > 0 && args[0] == "last" {
			args = args[1:]
		}
		if len(args) > 0 {
			v, err := strconv.Atoi(args[0])
			if err != nil {
				return fmt.Errorf("usage: trace last [n]")
			}
			n = v
		}
		trees, err := s.c.Trace(n)
		if err != nil {
			return err
		}
		if len(trees) == 0 {
			fmt.Fprintln(s.out, "(no firing trees recorded)")
			return nil
		}
		for i, tree := range trees {
			if i > 0 {
				fmt.Fprintln(s.out)
			}
			printSpan(s.out, &tree, 0)
		}
		return nil

	case "fire":
		if len(args) < 1 {
			return fmt.Errorf("usage: fire <rule> [<param>=<value> ...]")
		}
		fireArgs, err := parseAssignments(args[1:])
		if err != nil {
			return err
		}
		return s.c.FireRule(s.cur(), args[0], fireArgs)

	default:
		return fmt.Errorf("unknown command %q; try help", cmd)
	}
}

func oneArg(args []string, usage string, fn func(string) error) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: %s", usage)
	}
	return fn(args[0])
}

// printRuleFirings renders the per-rule firing counters as a table,
// most-fired first (ties by name). The raw map is already in the JSON
// dump above; the table is the at-a-glance view.
func printRuleFirings(w io.Writer, engine json.RawMessage) {
	var rep struct {
		Rules struct {
			RuleFirings map[string]uint64
		}
	}
	if err := json.Unmarshal(engine, &rep); err != nil || len(rep.Rules.RuleFirings) == 0 {
		return
	}
	names := make([]string, 0, len(rep.Rules.RuleFirings))
	for name := range rep.Rules.RuleFirings {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		fi, fj := rep.Rules.RuleFirings[names[i]], rep.Rules.RuleFirings[names[j]]
		if fi != fj {
			return fi > fj
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "\n%-30s %10s\n", "RULE", "FIRINGS")
	for _, name := range names {
		fmt.Fprintf(w, "%-30s %10d\n", name, rep.Rules.RuleFirings[name])
	}
}

// printObs renders the latency histograms and trace-ring totals that
// ride along with the engine counters in a stats reply.
func printObs(w io.Writer, s obs.Snapshot) {
	if !s.Enabled {
		fmt.Fprintln(w, "\n(observability disabled)")
		return
	}
	names := make([]string, 0, len(s.Hist))
	for name := range s.Hist {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\n%-14s %10s %12s %12s %12s\n", "LATENCY", "COUNT", "MEAN", "P50", "P99")
	for _, name := range names {
		h := s.Hist[name]
		if h.Count == 0 {
			fmt.Fprintf(w, "%-14s %10d %12s %12s %12s\n", name, 0, "-", "-", "-")
			continue
		}
		if obs.HistIsCount(name) {
			// Count histogram (group-commit batch sizes): plain numbers.
			fmt.Fprintf(w, "%-14s %10d %12.1f %12d %12d\n",
				name, h.Count, h.MeanCount(), h.QuantileCount(0.5), h.QuantileCount(0.99))
			continue
		}
		fmt.Fprintf(w, "%-14s %10d %12v %12v %12v\n",
			name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
	}
	fmt.Fprintf(w, "traces: %d recorded, %d dropped (capacity %d); slow firings: %d\n",
		s.TraceRecorded, s.TraceDropped, s.TraceCapacity, s.SlowFirings)
}

// printSpan renders one firing-tree node and recurses over its
// children, two spaces per depth level.
func printSpan(w io.Writer, sp *obs.SpanSnapshot, depth int) {
	indent := strings.Repeat("  ", depth)
	line := indent + sp.Kind
	if sp.Name != "" {
		line += " " + sp.Name
	}
	if sp.Mode != "" {
		line += " [" + sp.Mode + "]"
	}
	if sp.Outcome != "" {
		line += " " + sp.Outcome
	}
	if sp.Txn != 0 {
		line += fmt.Sprintf(" txn=%d", sp.Txn)
	}
	if sp.DurNS > 0 {
		line += fmt.Sprintf(" (%v)", time.Duration(sp.DurNS))
	}
	fmt.Fprintln(w, line)
	for i := range sp.Children {
		printSpan(w, &sp.Children[i], depth+1)
	}
}

const helpText = `commands:
  begin / child / commit / abort
  class <Name> <attr>:<kind>[!][*] ...
  classes
  create <Class> <attr>=<value> ...
  modify <#oid> <attr>=<value> ...
  delete <#oid> | get <#oid>
  select <query>
  explain select <query>   (steps past the parallel gate print parallel=N)
  event <Name> [param ...]
  signal <Name> <param>=<value> ...
  rule <file.json> | replace <file.json> | rules
  enable|disable|drop <rule>
  fire <rule> [<param>=<value> ...]
  stats | graph | trace last [n]
  checkpoint
  repl-status | promote
  snapshot inspect <path>
  quit`

// runSnapshot handles "snapshot inspect <path>": it reads the file
// directly rather than asking the server, so the same code backs the
// offline invocation (hipac-cli snapshot inspect <path>).
func runSnapshot(out io.Writer, args []string) error {
	if len(args) != 2 || args[0] != "inspect" {
		return fmt.Errorf("usage: snapshot inspect <path>")
	}
	info, err := storage.InspectSnapshotFile(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "path:      %s\n", info.Path)
	fmt.Fprintf(out, "kind:      %s\n", info.Kind)
	fmt.Fprintf(out, "watermark: %d\n", info.Watermark)
	fmt.Fprintf(out, "next oid:  %d\n", info.NextOID)
	if info.Kind == "delta" {
		fmt.Fprintf(out, "parent:    watermark %d, crc %08x\n",
			info.ParentWatermark, info.ParentCRC)
	}
	if len(info.ClassCards) > 0 {
		names := make([]string, 0, len(info.ClassCards))
		for name := range info.ClassCards {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = fmt.Sprintf("%s=%d", name, info.ClassCards[name])
		}
		fmt.Fprintf(out, "stats:     %s\n", strings.Join(parts, " "))
	}
	fmt.Fprintf(out, "records:   %d\n", info.Records)
	status := "ok"
	if !info.CRCOK {
		status = "MISMATCH (file damaged or truncated)"
	}
	fmt.Fprintf(out, "crc:       %08x (%s)\n", info.CRC, status)
	return nil
}

func parseAttrDef(spec string) (object.AttrDef, error) {
	var ad object.AttrDef
	for strings.HasSuffix(spec, "!") || strings.HasSuffix(spec, "*") {
		if strings.HasSuffix(spec, "!") {
			ad.Required = true
		} else {
			ad.Indexed = true
		}
		spec = spec[:len(spec)-1]
	}
	name, kindName, ok := strings.Cut(spec, ":")
	if !ok {
		return ad, fmt.Errorf("attribute %q needs name:kind", spec)
	}
	kind, err := datum.KindFromString(kindName)
	if err != nil {
		return ad, err
	}
	ad.Name = name
	ad.Kind = kind
	return ad, nil
}

func parseAssignments(args []string) (map[string]datum.Value, error) {
	out := map[string]datum.Value{}
	for _, a := range args {
		name, raw, ok := strings.Cut(a, "=")
		if !ok {
			return nil, fmt.Errorf("expected attr=value, got %q", a)
		}
		out[name] = parseValue(raw)
	}
	return out, nil
}

func parseValue(raw string) datum.Value {
	switch {
	case raw == "true":
		return datum.Bool(true)
	case raw == "false":
		return datum.Bool(false)
	case raw == "null":
		return datum.Null()
	case strings.HasPrefix(raw, "#"):
		if n, err := strconv.ParseUint(raw[1:], 10, 64); err == nil {
			return datum.ID(datum.OID(n))
		}
	}
	if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return datum.Int(n)
	}
	if f, err := strconv.ParseFloat(raw, 64); err == nil {
		return datum.Float(f)
	}
	return datum.Str(strings.Trim(raw, `'"`))
}

func parseOID(raw string) (datum.OID, error) {
	raw = strings.TrimPrefix(raw, "#")
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad oid %q", raw)
	}
	return datum.OID(n), nil
}

func formatAttrs(attrs map[string]datum.Value) string {
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + attrs[k].String()
	}
	return strings.Join(parts, " ")
}
