package obs

import (
	"fmt"
	"io"
	"strconv"
	"time"
)

// The one writer of the Prometheus text format (version 0.0.4): packages
// describe their metrics as data, and the functions below own the HELP/TYPE
// headers, label quoting and number formatting.

// MetricType is a Prometheus metric family type.
type MetricType string

// The family types of counters and gauges (histograms are written by
// WriteHistogram).
const (
	Counter MetricType = "counter"
	Gauge   MetricType = "gauge"
)

// Metric is one row of a metrics table over snapshots of type S: one sample
// whose value is the int64 field Field locates in a snapshot. Consecutive
// rows sharing a Name form one family, each row then one sample labelled
// Label=LabelValue; only a family's first row needs Help and Type. A row
// with an empty Label is an unlabelled sample.
type Metric[S any] struct {
	Name, Help        string
	Type              MetricType
	Label, LabelValue string
	Field             func(*S) *int64
}

// Sample is one sample of a labelled family: the label's value and the
// sample's value.
type Sample struct {
	Label string
	Value int64
}

// Series is one labelled series of a latency histogram. Buckets holds
// disjoint counts, Buckets[i] those of bucket i alone, summed into the
// format's cumulative buckets on the way out; the +Inf bucket is Count.
type Series struct {
	Label   string
	Buckets []int64
	Count   int64
	Sum     time.Duration
}

func writeHeader(w io.Writer, name, help string, typ MetricType) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteMetrics writes one sample per row, read from s, opening each family
// with its HELP/TYPE header.
func WriteMetrics[S any](w io.Writer, s *S, rows []Metric[S]) {
	for i, r := range rows {
		if i == 0 || r.Name != rows[i-1].Name {
			writeHeader(w, r.Name, r.Help, r.Type)
		}
		if r.Label == "" {
			fmt.Fprintf(w, "%s %d\n", r.Name, *r.Field(s))
		} else {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", r.Name, r.Label, r.LabelValue, *r.Field(s))
		}
	}
}

// WriteFamily writes one family whose samples are labelled
// label=Sample.Label; the header is written even when samples is empty.
func WriteFamily(w io.Writer, name, help string, typ MetricType, label string, samples []Sample) {
	writeHeader(w, name, help, typ)
	for _, sm := range samples {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, sm.Label, sm.Value)
	}
}

// WriteHistogram writes one latency histogram family with a series per
// element of series, labelled label=Series.Label; bounds are the buckets'
// upper bounds in ascending order. Latencies render in seconds, the
// format's base unit.
func WriteHistogram(w io.Writer, name, help, label string, bounds []time.Duration, series []Series) {
	writeHeader(w, name, help, "histogram")
	for _, sr := range series {
		cum := int64(0)
		for i, bound := range bounds {
			cum += sr.Buckets[i]
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, label, sr.Label, strconv.FormatFloat(bound.Seconds(), 'g', -1, 64), cum)
		}
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, sr.Label, sr.Count)
		fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", name, label, sr.Label, strconv.FormatFloat(sr.Sum.Seconds(), 'g', -1, 64))
		fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, sr.Label, sr.Count)
	}
}
