// Command tracecheck validates a Chrome trace-event JSON file produced
// by the -trace flag: it must parse as an event array and every span
// must be well-formed and properly nested within its lane (the trace
// scenario of scripts/e2e runs the same check in-process). Exits
// non-zero on any violation.
//
// Usage: go run ./scripts/tracecheck <trace.json>
package main

import (
	"fmt"
	"os"

	"exocore/internal/obs"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace.json>")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	spans, err := obs.ValidateTrace(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	if spans == 0 {
		fmt.Fprintln(os.Stderr, "tracecheck: trace has no spans")
		os.Exit(1)
	}
	fmt.Printf("tracecheck: %s ok, %d spans\n", os.Args[1], spans)
}
