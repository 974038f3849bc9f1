package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"threading/internal/stats"
)

// withLE merges an le="..." label into an already-rendered label
// block (histogram bucket lines carry the series labels plus le).
func withLE(suffix, le string) string {
	if suffix == "" {
		return `{le="` + le + `"}`
	}
	return suffix[:len(suffix)-1] + `,le="` + le + `"}`
}

// counterValue reads a counter-kind series as an int64.
func (s *series) counterValue() int64 {
	switch {
	case s.c != nil:
		return s.c.Value()
	case s.cf != nil:
		return s.cf()
	case s.sc != nil:
		return s.sc.Value()
	}
	return 0
}

// WritePrometheus writes every registered family in Prometheus text
// exposition format 0.0.4 (# HELP / # TYPE headers, one line per
// series; histograms as cumulative le buckets plus _sum and _count).
// Scrape collectors run first, so derived gauges are fresh.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshot() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.k); err != nil {
			return err
		}
		for _, suffix := range f.order {
			s := f.series[suffix]
			var err error
			switch f.k {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, suffix, s.counterValue())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, suffix,
					strconv.FormatFloat(s.value(), 'g', -1, 64))
			case kindHistogram:
				err = writeHistogram(w, f.name, suffix, s.h)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram emits the cumulative bucket lines for one histogram
// series. Only buckets with observations get a line (plus the
// mandatory +Inf), so idle histograms stay three lines.
func writeHistogram(w io.Writer, name, suffix string, h *Histogram) error {
	snap := h.snapshot()
	var cum int64
	// The last bucket folds into the mandatory +Inf line below (its
	// upper bound is already MaxInt64), so the loop stops short of it.
	for i := 0; i < stats.NumBuckets-1; i++ {
		c := snap.counts[i]
		if c == 0 {
			continue
		}
		cum += c
		_, hi := stats.BucketBounds(i)
		le := strconv.FormatInt(hi, 10)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(suffix, le), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n%s_sum%s %d\n%s_count%s %d\n",
		name, withLE(suffix, "+Inf"), snap.n,
		name, suffix, snap.sum,
		name, suffix, snap.n)
	return err
}

// Gather flattens the registry into name{labels} -> value. Counters
// and gauges contribute one entry; histograms contribute _count,
// _sum, and quantile-bound entries (_p50, _p90, _p99) — the flat view
// ?format=json serves and in-process harnesses scrape.
func (r *Registry) Gather() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.snapshot() {
		for _, suffix := range f.order {
			s := f.series[suffix]
			switch f.k {
			case kindCounter:
				out[f.name+suffix] = float64(s.counterValue())
			case kindGauge:
				out[f.name+suffix] = s.value()
			case kindHistogram:
				snap := s.h.snapshot()
				out[f.name+"_count"+suffix] = float64(snap.n)
				out[f.name+"_sum"+suffix] = float64(snap.sum)
				out[f.name+"_p50"+suffix] = float64(snap.quantile(0.50))
				out[f.name+"_p90"+suffix] = float64(snap.quantile(0.90))
				out[f.name+"_p99"+suffix] = float64(snap.quantile(0.99))
			}
		}
	}
	return out
}

// WriteJSON writes the Gather map as indented JSON (keys sorted by
// encoding/json) — the expvar-style exposition behind
// /metrics?format=json.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Gather())
}
