package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

// traceCmd implements `rppm-diag trace URL`: fetch a serve instance's
// /debug/requests ring (Chrome trace_event JSON), validate it, and print a
// per-request summary — route, trace ID, wall time, and the top-level
// stage breakdown with cache outcomes — so a latency incident can be
// triaged from a terminal without loading Perfetto.
func traceCmd(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: rppm-diag trace URL  (e.g. http://127.0.0.1:8344/debug/requests)")
		return 2
	}
	url := args[0]
	if !strings.Contains(url, "/debug/requests") && !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.Contains(url, "/debug/requests") {
		url = strings.TrimRight(url, "/") + "/debug/requests"
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rppm-diag trace:", err)
		return 1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		fmt.Fprintln(os.Stderr, "rppm-diag trace: read:", err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "rppm-diag trace: %s answered %s\n", url, resp.Status)
		return 1
	}
	n, err := summarizeTraceEvents(os.Stdout, body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rppm-diag trace:", err)
		return 1
	}
	fmt.Printf("%d trace(s), %d event(s) — valid trace_event JSON (load in chrome://tracing or Perfetto)\n",
		n, countEvents(body))
	return 0
}

// traceEventDoc mirrors the trace_event JSON object format.
type traceEventDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   float64           `json:"dur"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args"`
}

func countEvents(body []byte) int {
	var doc traceEventDoc
	_ = json.Unmarshal(body, &doc)
	return len(doc.TraceEvents)
}

// summarizeTraceEvents validates the payload and prints one block per
// trace (tid): the root span line, then each top-level stage with its
// share of the root duration and annotations. Returns the trace count.
func summarizeTraceEvents(w io.Writer, body []byte) (int, error) {
	var doc traceEventDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, fmt.Errorf("invalid trace_event JSON: %w", err)
	}
	byTID := map[int][]traceEvent{}
	names := map[int]string{}
	var tids []int
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			if _, seen := byTID[ev.TID]; !seen {
				tids = append(tids, ev.TID)
				byTID[ev.TID] = nil
			}
			names[ev.TID] = ev.Args["name"]
		case "X":
			if _, seen := byTID[ev.TID]; !seen {
				tids = append(tids, ev.TID)
			}
			byTID[ev.TID] = append(byTID[ev.TID], ev)
		default:
			return 0, fmt.Errorf("unexpected event phase %q", ev.Phase)
		}
	}
	sort.Ints(tids)
	traces := 0
	for _, tid := range tids {
		events := byTID[tid]
		if len(events) == 0 {
			continue
		}
		traces++
		sort.Slice(events, func(i, j int) bool {
			if events[i].TS != events[j].TS {
				return events[i].TS < events[j].TS
			}
			return events[i].Dur > events[j].Dur
		})
		// The root span is the earliest, longest event of the track; it
		// sorts first.
		root := events[0]
		fmt.Fprintf(w, "%s  total %.3fms\n", names[tid], root.Dur/1000)
		for _, ev := range events[1:] {
			// Indent by timestamp containment relative to earlier, still
			// open events: a span starting inside another nests under it.
			depth := 1
			for _, outer := range events[1:] {
				if outer.TS < ev.TS && ev.TS+ev.Dur <= outer.TS+outer.Dur+1 {
					depth++
				}
			}
			pct := 0.0
			if root.Dur > 0 {
				pct = 100 * ev.Dur / root.Dur
			}
			var notes []string
			for _, k := range []string{"cache", "bytes", "config", "outcome", "retry", "breaker"} {
				if v, ok := ev.Args[k]; ok {
					notes = append(notes, k+"="+v)
				}
			}
			line := fmt.Sprintf("%s%-16s %9.3fms  %5.1f%%", strings.Repeat("  ", depth), ev.Name, ev.Dur/1000, pct)
			if len(notes) > 0 {
				line += "  [" + strings.Join(notes, " ") + "]"
			}
			fmt.Fprintln(w, line)
		}
	}
	return traces, nil
}
