// dpr-cli is an interactive client for a D-FASTER cluster: it connects to a
// dpr-finder, opens a DPR session, and exposes get/put/del/add plus
// commit-status commands. Useful for poking at a multi-process deployment
// started with dpr-finder + dpr-server.
//
// Usage:
//
//	dpr-cli -finder 127.0.0.1:7700 -partitions 64
//
// Commands:
//
//	put <key> <value>     write (completes immediately, commits lazily)
//	get <key>             read
//	del <key>             delete
//	add <key> <n>         atomic uint64 add
//	status                committed prefix / exceptions / last seq
//	wait                  block until everything issued so far commits; names a lost write
//	cut                   print the current DPR cut
//	quit
//
// Cluster observability (no finder connection needed):
//
//	dpr-cli obs host1:8081 host2:8082,host3:8083
//
// scrapes each worker's /debug/dpr introspection endpoint and renders a
// one-screen cluster view: versions, cut lag, world-lines, rollback counts.
package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"dpr/internal/core"
	"dpr/internal/dfaster"
	"dpr/internal/metadata"
	"dpr/internal/obs"
	"dpr/internal/wire"
)

func main() {
	finderAddr := flag.String("finder", "127.0.0.1:7700", "dpr-finder RPC address")
	partitions := flag.Int("partitions", 64, "cluster-wide virtual partition count")
	batch := flag.Int("b", 1, "batch size")
	flag.Parse()

	if flag.Arg(0) == "obs" {
		if err := obsView(flag.Args()[1:]); err != nil {
			log.Fatalf("obs: %v", err)
		}
		return
	}

	meta, err := metadata.Dial(*finderAddr)
	if err != nil {
		log.Fatalf("dial finder: %v", err)
	}
	defer meta.Close()
	client, err := dfaster.NewClient(dfaster.ClientConfig{
		Partitions: *partitions, BatchSize: *batch, Window: 64 * *batch, Relaxed: true,
	}, meta)
	if err != nil {
		log.Fatalf("open session: %v", err)
	}
	defer client.Close()
	fmt.Printf("connected; session %d\n", client.Session().ID())

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 {
			if quit := execute(client, meta, fields); quit {
				return
			}
		}
		fmt.Print("> ")
	}
}

func execute(client *dfaster.Client, meta metadata.Service, fields []string) bool {
	defer handleFailure(client)
	failed := false // a write tells only its callback that it could not be delivered
	cb := func(r wire.OpResult) { failed = r.Status == wire.StatusError }
	written := func(ok string) {
		check(client.Drain())
		if failed {
			ok = "error: not delivered; fate unknown (status lists it as an exception)"
		}
		fmt.Println(ok)
	}
	switch fields[0] {
	case "quit", "exit":
		return true
	case "put":
		if len(fields) != 3 {
			fmt.Println("usage: put <key> <value>")
			return false
		}
		check(client.Upsert([]byte(fields[1]), []byte(fields[2]), cb))
		written("OK (completed; committing lazily)")
	case "get":
		if len(fields) != 2 {
			fmt.Println("usage: get <key>")
			return false
		}
		msg := "(error)"
		check(client.Read([]byte(fields[1]), func(r wire.OpResult) {
			switch r.Status {
			case wire.StatusOK:
				msg = fmt.Sprintf("%q (raw: %s)", r.Value, decodeU64(r.Value))
			case wire.StatusNotFound:
				msg = "(not found)"
			}
		}))
		check(client.Drain()) // every operation settles: answered, or abandoned once its retries are spent
		fmt.Println(msg)
	case "del":
		if len(fields) != 2 {
			fmt.Println("usage: del <key>")
			return false
		}
		check(client.Delete([]byte(fields[1]), cb))
		written("OK")
	case "add":
		if len(fields) != 3 {
			fmt.Println("usage: add <key> <n>")
			return false
		}
		n, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			fmt.Println("bad number:", err)
			return false
		}
		check(client.RMW([]byte(fields[1]), n, cb))
		written("OK")
	case "status":
		p, exc := client.Committed()
		fmt.Printf("committed prefix: %d / %d issued; exceptions: %v\n", p, client.LastSeq(), exc)
	case "wait":
		if err := client.WaitCommitAll(30 * time.Second); err != nil {
			fmt.Println("wait:", err)
		} else {
			fmt.Println("all committed")
		}
	case "cut":
		cut, vmax, wl, err := meta.State()
		if err != nil {
			fmt.Println("state:", err)
		} else {
			fmt.Printf("cut=%v vmax=%d world-line=%d\n", cut, vmax, wl)
		}
	default:
		fmt.Println("commands: put get del add status wait cut quit")
	}
	return false
}

func check(err error) {
	if err != nil {
		fmt.Println("error:", err)
	}
}

func handleFailure(client *dfaster.Client) {
	err := client.Err()
	var surv *core.SurvivalError
	if errors.As(err, &surv) {
		fmt.Printf("!! failure: world-line %d, surviving prefix %d, exceptions %v\n",
			surv.WorldLine, surv.SurvivingPrefix, surv.Exceptions)
		client.Acknowledge()
	}
}

// decodeU64 renders an 8-byte counter value.
func decodeU64(b []byte) string {
	if len(b) == 8 {
		return fmt.Sprintf("%d", binary.LittleEndian.Uint64(b))
	}
	return string(b)
}

// obsView scrapes /debug/dpr from every given obs address (space- or
// comma-separated) and renders the one-screen cluster view. Unreachable
// workers are reported inline rather than failing the whole view.
func obsView(args []string) error {
	var addrs []string
	for _, a := range args {
		for _, one := range strings.Split(a, ",") {
			if one = strings.TrimSpace(one); one != "" {
				addrs = append(addrs, one)
			}
		}
	}
	if len(addrs) == 0 {
		return errors.New("usage: dpr-cli obs <obs-addr>[,<obs-addr>...] ...")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ADDR\tWORKER\tKIND\tWL\tCURRENT\tPERSISTED\tCOMMITTED\tCUT-LAG\tPUMP\tSESSIONS\tROLLBACKS\tBATCHES\tFROZEN")
	var finder *obs.DPRState
	var logs []*obs.DPRState
	for _, addr := range addrs {
		st, err := scrapeDebugDPR(client, addr)
		if err != nil {
			fmt.Fprintf(tw, "%s\t-\t(unreachable: %v)\n", addr, err)
			continue
		}
		if st.Kind == "finder" && finder == nil {
			finder = st
		}
		if st.Log != nil {
			logs = append(logs, st)
		}
		worker := "-"
		if st.Worker != 0 || st.Kind != "finder" {
			worker = strconv.FormatUint(st.Worker, 10)
		}
		frozen := ""
		if st.Frozen {
			frozen = "FROZEN"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%s\n",
			addr, worker, st.Kind, st.WorldLine, st.CurrentVersion, st.PersistedVersion,
			st.CommittedVersion, st.CutLag, pumpColumn(st), st.Sessions, st.Rollbacks, st.Batches, frozen)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	printLogView(logs)
	if finder != nil {
		printElasticView(finder)
	}
	return nil
}

// printLogView renders each store's HybridLog: where memory is (resident =
// head to tail), how much of it is still updated in place, the committed
// version compaction is held to (nothing above it is garbage yet), the
// resident size at which the store's compactor starts its next cycle, and the
// slab bytes backed by memory.
func printLogView(workers []*obs.DPRState) {
	if len(workers) == 0 {
		return
	}
	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "LOG\tBEGIN\tHEAD\tREAD-ONLY\tTAIL\tRESIDENT\tMUTABLE\tGARBAGE-BELOW\tNEXT-CYCLE-AT\tMAPPED")
	for _, st := range workers {
		l := st.Log
		fmt.Fprintf(tw, "worker %d\t%d\t%d\t%d\t%d\t%s\t%s\tv%d\t%s\t%s\n", st.Worker,
			l.Begin, l.Head, l.ReadOnly, l.Tail, mib(l.Tail-l.Head), mib(l.Tail-l.ReadOnly), l.Committed, mib(l.CompactTrigger), mib(l.Mapped))
	}
	tw.Flush()
}

func mib(n int64) string { return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20)) }

// pumpColumn says why a worker commits at the cadence it does: the gap its
// commit pump currently leaves after a seal before it opens a round of its own
// and how many commits it has started that opened one or joined a peer's
// ("adaptive 0.63ms 5210/4876": the last seal took 0.21 ms, and the worker
// opens about as many rounds as it joins); "-" for the finder and for
// manual-commit workers.
func pumpColumn(st *obs.DPRState) string {
	if st.CommitPump == "" {
		return "-"
	}
	return fmt.Sprintf("%s %.3gms %d/%d", st.CommitPump, st.CommitGapMS, st.RoundsInitiated, st.RoundsJoined)
}

// printElasticView renders the finder's membership table, the per-worker
// partition ownership (compressed to ranges), and any in-flight migrations —
// the live view of an elastic cluster mid-rebalance.
func printElasticView(st *obs.DPRState) {
	if len(st.Members) > 0 {
		fmt.Printf("\nmembership (%d workers):\n", len(st.Members))
		byWorker := make(map[uint64][]uint64)
		for p, w := range st.Owners {
			pn, err := strconv.ParseUint(p, 10, 64)
			if err != nil {
				continue
			}
			byWorker[w] = append(byWorker[w], pn)
		}
		var ids []string
		for id := range st.Members {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			a, _ := strconv.ParseUint(ids[i], 10, 64)
			b, _ := strconv.ParseUint(ids[j], 10, 64)
			return a < b
		})
		for _, id := range ids {
			w, _ := strconv.ParseUint(id, 10, 64)
			parts := byWorker[w]
			fmt.Printf("  worker %s @ %s\towns %d partition(s) %s\n",
				id, st.Members[id], len(parts), partitionRanges(parts))
		}
	}
	if len(st.Migrations) > 0 {
		fmt.Printf("\nin-flight migrations (%d):\n", len(st.Migrations))
		for _, m := range st.Migrations {
			fmt.Printf("  #%d  worker %d -> worker %d\tpartitions %s\t(world-line %d)\n",
				m.ID, m.From, m.To, partitionRanges(m.Partitions), m.WorldLine)
		}
	}
}

// partitionRanges compresses a partition list into "[0-7 12 14-15]" form.
func partitionRanges(parts []uint64) string {
	if len(parts) == 0 {
		return "[]"
	}
	sorted := append([]uint64(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[j]+1 {
			j++
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		if j > i {
			fmt.Fprintf(&b, "%d-%d", sorted[i], sorted[j])
		} else {
			fmt.Fprintf(&b, "%d", sorted[i])
		}
		i = j + 1
	}
	b.WriteByte(']')
	return b.String()
}

func scrapeDebugDPR(client *http.Client, addr string) (*obs.DPRState, error) {
	resp, err := client.Get("http://" + addr + "/debug/dpr")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	var st obs.DPRState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
