// Command dpr-vet runs the DPR static-analysis suite (internal/analysis)
// over the module, five checkers: mutex-discipline (release and order within
// a function), cut-worldline (a cut travels with its world-line),
// decode-bounds (alias decoders), epoch-discipline (Enter/Exit pairing, no
// blocking while entered) and lock-order-global (lock ordering across the
// call graph). It exits non-zero when any diagnostic survives the
// //dpr:ignore suppressions, or a suppression is stale, so it can gate CI
// exactly like the compiler.
//
// Usage:
//
//	go run ./cmd/dpr-vet ./...            # whole module
//	go run ./cmd/dpr-vet ./internal/wire  # restrict reporting to a subtree
//	go run ./cmd/dpr-vet -checks mutex-discipline,epoch-discipline ./...
//	go run ./cmd/dpr-vet -tests ./...     # include in-package _test.go files
//	go run ./cmd/dpr-vet -json ./...      # machine-readable diagnostics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dpr/internal/analysis"
)

// jsonDiag is the -json wire shape, one object per diagnostic.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	var (
		checksFlag = flag.String("checks", "", "comma-separated checker names to run (default: all)")
		tests      = flag.Bool("tests", false, "also analyze in-package _test.go files")
		list       = flag.Bool("list", false, "list checker names and exit")
		jsonOut    = flag.Bool("json", false, "emit diagnostics as a JSON array instead of text")
	)
	flag.Parse()

	all := analysis.DefaultCheckers()
	if *list {
		for _, c := range all {
			fmt.Println(c.Name())
		}
		return
	}
	checkers := all
	if *checksFlag != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*checksFlag, ",") {
			want[strings.TrimSpace(n)] = true
		}
		checkers = nil
		for _, c := range all {
			if want[c.Name()] {
				checkers = append(checkers, c)
				delete(want, c.Name())
			}
		}
		for n := range want {
			fmt.Fprintf(os.Stderr, "dpr-vet: unknown checker %q (use -list)\n", n)
			os.Exit(2)
		}
	}

	dir := "."
	var restrict []string
	for _, arg := range flag.Args() {
		clean := strings.TrimSuffix(arg, "...")
		clean = strings.TrimSuffix(clean, "/")
		if clean == "." || clean == "" {
			continue // ./... — whole module, no restriction
		}
		abs, err := filepath.Abs(clean)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpr-vet: %v\n", err)
			os.Exit(2)
		}
		restrict = append(restrict, abs)
	}

	u, err := analysis.Load(analysis.LoadConfig{Dir: dir, IncludeTests: *tests})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpr-vet: %v\n", err)
		os.Exit(2)
	}
	diags := analysis.Run(u, checkers)
	if len(restrict) > 0 {
		kept := diags[:0]
		for _, d := range diags {
			for _, r := range restrict {
				if d.Pos.Filename == r || strings.HasPrefix(d.Pos.Filename, r+string(filepath.Separator)) {
					kept = append(kept, d)
					break
				}
			}
		}
		diags = kept
	}
	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Check:   d.Check,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "dpr-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dpr-vet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}
