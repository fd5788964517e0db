package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rppm/internal/obs"
)

// closureTolerance is how far the layers' summed self time may sit from
// the end-to-end time before the traced run flags the ledger: at most 5%
// of the wall may be unattributed (harness glue in a root span) or
// double-counted (overlapping sibling spans).
const closureTolerance = 0.05

// maxWrittenTraces caps the traces written to the trace file; the ledger
// itself is computed from every trace. A serve run records tens of
// thousands of requests, and a trace file of that size helps nobody.
const maxWrittenTraces = 2000

// spanNode is one span of a trace rebuilt from obs.Trace.Walk.
type spanNode struct {
	name       string
	start, dur time.Duration
	children   []*spanNode
}

// treeOf rebuilds t's span tree: Walk visits parents before children
// with their depth, so a stack of open ancestors recovers the edges.
func treeOf(t *obs.Trace) *spanNode {
	var root *spanNode
	var stack []*spanNode
	t.Walk(func(depth int, s obs.SpanSnapshot) {
		n := &spanNode{name: s.Name, start: s.Start, dur: s.Dur}
		stack = stack[:depth]
		if depth == 0 {
			root = n
		} else {
			p := stack[depth-1]
			p.children = append(p.children, n)
		}
		stack = append(stack, n)
	})
	return root
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children are clipped to the parent's interval, and
// overlapping children are counted once.
func selfTime(n *spanNode) time.Duration {
	lo, hi := n.start, n.start+n.dur
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(n.children))
	for _, c := range n.children {
		a, b := max(c.start, lo), min(c.start+c.dur, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return n.dur - covered
}

// ledger accumulates per-layer self time over many traces. A root span is
// the operation as its caller sees it; its own self time is harness glue
// no layer accounts for.
type ledger struct {
	mu           sync.Mutex
	self         map[string]time.Duration
	spans        map[string]int
	roots        int
	rootWall     time.Duration
	unattributed time.Duration
	traces       []*obs.Trace
}

func newLedger() *ledger {
	return &ledger{self: map[string]time.Duration{}, spans: map[string]int{}}
}

// add folds one finished trace into the ledger and keeps it for writing.
func (l *ledger) add(t *obs.Trace) {
	root := treeOf(t)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.traces) < maxWrittenTraces {
		l.traces = append(l.traces, t)
	}
	l.addTree(root)
}

// addTree folds one operation's span tree into the ledger; l.mu is held.
func (l *ledger) addTree(root *spanNode) {
	l.roots++
	l.rootWall += root.dur
	l.unattributed += selfTime(root)
	var walk func(n *spanNode)
	walk = func(n *spanNode) {
		for _, c := range n.children {
			l.self[c.name] += selfTime(c)
			l.spans[c.name]++
			walk(c)
		}
	}
	walk(root)
}

// closure returns the layers' summed self time over the summed root
// durations: 1 when every instant of every operation is attributed to
// exactly one layer, below 1 for unattributed glue, above 1 when sibling
// spans overlap (parallel work inside one operation).
func (l *ledger) closure() float64 {
	if l.rootWall == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l.self {
		sum += d
	}
	return float64(sum) / float64(l.rootWall)
}

// closes reports whether a closure ratio is within closureTolerance.
func closes(ratio float64) bool {
	return ratio >= 1-closureTolerance && ratio <= 1+closureTolerance
}

// report adds the ledger table and closure verdict to rep.
func (l *ledger) report(rep *report) {
	names := make([]string, 0, len(l.self))
	for n := range l.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return l.self[names[i]] > l.self[names[j]] })
	rep.notef("layer ledger: %d operations, %.1f ms end to end", l.roots, ms(l.rootWall))
	for _, n := range names {
		rep.notef("  %-28s self %10.2f ms  %5.1f%%  (%d spans)", n, ms(l.self[n]),
			100*float64(l.self[n])/float64(l.rootWall), l.spans[n])
	}
	rep.notef("  %-28s self %10.2f ms  %5.1f%%", "(unattributed)", ms(l.unattributed),
		100*float64(l.unattributed)/float64(l.rootWall))
	c := l.closure()
	rep.set("ledger.closure_ratio", c)
	verdict := "closes"
	if !closes(c) {
		verdict = "DOES NOT CLOSE"
	}
	rep.notef("ledger closure: layer self times sum to %.4f of the end-to-end time (tolerance ±%.0f%%): %s",
		c, 100*closureTolerance, verdict)
}

// write stores the kept traces as trace_event JSON, the format
// `rppm-diag trace` reads, and the ledger summary beside it.
func (l *ledger) write(opts options, extra map[string]any) error {
	base := filepath.Join(opts.outDir, fmt.Sprintf("%s-seed%d", opts.workload, opts.seed))
	b, err := obs.MarshalTraceEvents(l.traces)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", b, 0o644); err != nil {
		return err
	}
	self := map[string]float64{}
	for n, d := range l.self {
		self[n] = ms(d)
	}
	doc := map[string]any{
		"workload":        opts.workload,
		"seed":            opts.seed,
		"operations":      l.roots,
		"end_to_end_ms":   ms(l.rootWall),
		"self_ms":         self,
		"unattributed_ms": ms(l.unattributed),
		"closure_ratio":   l.closure(),
		"closure_tol":     closureTolerance,
	}
	for k, v := range extra {
		doc[k] = v
	}
	j, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".ledger.json", j, 0o644)
}

// hookTrack places spans reconstructed from hooks that report a finished
// piece of work (engine progress events, store operations) under one
// parent span. A hook fires when the work ends, so the span is laid out
// as [now-d, now]. Work the hook reports in a burst — a config-batched
// simulation emits one amortised event per config at the same instant —
// is stacked back to back before the burst's earlier spans instead of
// overlapping them, and nothing is placed before the parent began.
type hookTrack struct {
	mu       sync.Mutex
	ctx      context.Context
	floor    time.Duration // parent span's start offset
	occStart time.Duration // interval the current burst occupies
	occEnd   time.Duration
}

func newHookTrack(ctx context.Context, parent *obs.Span) *hookTrack {
	h := &hookTrack{ctx: ctx}
	if parent != nil {
		h.floor = parent.Start
	}
	return h
}

// place records a span named name of duration d that ended just now.
func (h *hookTrack) place(name string, d time.Duration) {
	sp := obs.Start(h.ctx, name)
	if sp == nil {
		return
	}
	sp.End()
	h.mu.Lock()
	defer h.mu.Unlock()
	end := sp.Start
	if end-d < h.occEnd {
		end = min(end, h.occStart) // overlaps the burst: stack before it
	} else {
		h.occEnd = end
	}
	start := max(end-d, h.floor)
	end = max(end, start)
	h.occStart = start
	// The span is finished and no other goroutine reads it until the
	// trace is walked after the operation completes.
	sp.Start, sp.Dur = start, end-start
}
