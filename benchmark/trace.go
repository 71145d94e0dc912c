package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// A traced operation runs twice. First whole, through its public entry point:
// the root span "op". Then decomposed by the benchmark into the chain of
// public layer calls that entry point makes, each call in a span whose
// parent is the span of the call that would have made it. A decomposed call
// runs right after the call it stands inside, not within it, so a child's
// interval lies after its parent's; self time is therefore taken from
// durations, not from interval overlap.

// Span names are the ROADMAP's stage names, so that the later in-program
// recorder can reuse them.
const (
	spanOp           = "op"
	spanDecodeReq    = "wire.decode_req"
	spanPlanCache    = "fdb.plan_cache"
	spanExec         = "fdb.exec"
	spanRefresh      = "fdb.refresh"
	spanFilter       = "relation.filter"
	spanBuild        = "fbuild.build"
	spanApply        = "fplan.apply"
	spanAggregate    = "frep.aggregate"
	spanRows         = "fdb.rows"
	spanEnumerate    = "frep.enumerate"
	spanOrdered      = "frep.ordered"
	spanEncodeRows   = "wire.encode_rows"
	spanDecodeRows   = "wire.decode_rows"
	spanWrite        = "delta.write"
	spanPrepareCold  = "fdb.prepare_cold"
	spanFTreeSearch  = "opt.ftree"
	spanFPlanSearch  = "opt.fplan"
	spanJoin         = "fdb.join"
	spanProduct      = "fplan.product"
	spanSetOp        = "fdb.setop"
	spanSetOpEnc     = "frep.setop"
	spanCachedQuery  = "fdb.query_cached"
	noParent         = -1
	unattributedName = "unattributed"
)

// span is one recorded call: what, when (nanoseconds since the trace
// began), inside which span, and for which operation.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory; one goroutine uses it.
type tracer struct {
	zero  time.Time
	spans []span
	op    int
	// counts are taken at the same boundaries as the spans.
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{zero: time.Now(), counts: map[string]float64{}} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.zero))})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.zero)) }

// synthetic records a span whose duration was derived, not observed: the
// refresh a first execution paid over an immediate second one.
func (t *tracer) synthetic(name string, parent int, d time.Duration) {
	id := t.begin(name, parent)
	t.spans[id].End = t.spans[id].Start + int64(d)
}

func (t *tracer) count(name string, n float64) { t.counts[name] += n }

// selfTimes returns each span's self time: its duration minus its children's
// durations, floored at zero.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	// Share is the self time's share of all operations' time.
	Share float64 `json:"share_of_op"`
}

// layerTable folds spans by name. The root's self time is what no layer
// span accounts for; it is reported as "unattributed".
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	var opTotal int64
	for i, s := range spans {
		name := s.Name
		if s.Parent == noParent {
			opTotal += s.dur()
			name = unattributedName
		}
		r := rows[name]
		if r == nil {
			r = &layerRow{Name: name}
			rows[name] = r
		}
		r.Count++
		r.TotalMS += float64(s.dur()) / 1e6
		r.SelfMS += float64(self[i]) / 1e6
	}
	var out []layerRow
	for _, r := range rows {
		if opTotal > 0 {
			r.Share = r.SelfMS * 1e6 / float64(opTotal)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// printLayerTable renders the table for people.
func printLayerTable(rows []layerRow, ops int) {
	fmt.Printf("%-22s %8s %12s %12s %9s\n", "layer span", "count", "total ms/op", "self ms/op", "share")
	for _, r := range rows {
		fmt.Printf("%-22s %8d %12.4f %12.4f %8.1f%%\n", r.Name, r.Count, r.TotalMS/float64(ops), r.SelfMS/float64(ops), 100*r.Share)
	}
}
