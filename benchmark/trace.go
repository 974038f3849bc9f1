package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span names, outermost first. An operation is op -> region ->
// body.ideal on the closed-loop workloads and op -> serve.request ->
// serve.handler -> body.ideal on the serve workloads. body.ideal is
// not observed: it is the sequential reference time of the operation
// kind divided by the thread count, clipped to its parent, so the
// parent's self time is the scheduler's share.
const (
	spanOp      = "op"
	spanRegion  = "region"
	spanRequest = "serve.request"
	spanHandler = "serve.handler"
	spanBody    = "body.ideal"
)

// span is one interval at a layer boundary, recorded by the benchmark
// around its own calls into the program.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // shared by the spans of one operation
	ID     int    `json:"id"`     // index in the log
	Parent int    `json:"parent"` // span ID, -1 for an op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"` // both since the log's epoch
	Series string `json:"series"`
	Kind   string `json:"kind"`
}

// spanLog keeps spans in memory until the run ends. It is filled by
// one goroutine at a time: the closed loops have one caller, and the
// open loop converts its per-arrival records after the slice drains.
type spanLog struct {
	epoch time.Time
	spans []span
	ops   int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// chain records one operation as nested spans, outermost first. Each
// interval is clipped to its parent, so self times cannot go negative
// and always sum to the operation's duration.
func (l *spanLog) chain(series, kind string, names []string, starts, ends []time.Time) {
	op := l.ops
	l.ops++
	parent := -1
	var lo, hi int64
	for i, name := range names {
		s, e := starts[i].Sub(l.epoch).Nanoseconds(), ends[i].Sub(l.epoch).Nanoseconds()
		if i > 0 {
			s, e = min(max(s, lo), hi), max(min(e, hi), lo)
		}
		if e < s {
			e = s
		}
		id := len(l.spans)
		l.spans = append(l.spans, span{Name: name, Op: op, ID: id, Parent: parent,
			Start: s, End: e, Series: series, Kind: kind})
		parent, lo, hi = id, s, e
	}
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval that its child spans cover (overlapping
// children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerSelf summarises a log per (series, span name): the median self
// time in microseconds and the span count.
type layerSelf struct {
	Series string `json:"series"`
	Layer  string `json:"layer"`
	Count  int    `json:"count"`
	SelfUS num    `json:"self_p50_us"`
	DurUS  num    `json:"duration_p50_us"`
}

func summariseSpans(spans []span) []layerSelf {
	self := selfTimes(spans)
	type key struct{ series, layer string }
	selfs, durs := map[key][]float64{}, map[key][]float64{}
	var order []key
	for _, s := range spans {
		k := key{s.Series, s.Name}
		if _, seen := selfs[k]; !seen {
			order = append(order, k)
		}
		selfs[k] = append(selfs[k], float64(self[s.ID])/1e3)
		durs[k] = append(durs[k], float64(s.End-s.Start)/1e3)
	}
	out := make([]layerSelf, 0, len(order))
	for _, k := range order {
		out = append(out, layerSelf{k.series, k.layer, len(selfs[k]), num(percentile(selfs[k], 0.5)), num(percentile(durs[k], 0.5))})
	}
	return out
}

// write stores the log as JSON lines, one span per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
