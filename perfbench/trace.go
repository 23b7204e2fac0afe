package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call recorded by the benchmark around a public function
// of a layer. Times are seconds since the tracer's epoch.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a repetition's root span
	Trace  string  `json:"trace"`  // one id per workload repetition
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // End-Start minus the time its children cover
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced repetitions run.
type tracer struct {
	epoch time.Time
	trace string
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name, detail string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.trace, Name: name, Detail: detail,
		Start: time.Since(t.epoch).Seconds()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.epoch).Seconds()
}

// computeSelf fills every span's self time. Spans nest and never overlap
// their siblings, because the benchmark calls one layer at a time.
func (t *tracer) computeSelf() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// layerStat aggregates the spans of one name within one repetition.
type layerStat struct {
	Calls int       `json:"calls"`
	Total float64   `json:"total_s"`
	Self  float64   `json:"self_s"`
	Durs  []float64 `json:"-"`
}

// byName aggregates the spans of one trace id by span name.
func (t *tracer) byName(trace string) map[string]*layerStat {
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		if s.Trace != trace {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Calls++
		st.Total += s.End - s.Start
		st.Self += s.Self
		st.Durs = append(st.Durs, s.End-s.Start)
	}
	return out
}

// traceFile is the document written once per traced run.
type traceFile struct {
	Workload   string                           `json:"workload"`
	Seed       int64                            `json:"seed"`
	GOMAXPROCS int                              `json:"gomaxprocs"`
	Layers     map[string]map[string]*layerStat `json:"layers_by_trace"`
	Counters   map[string]float64               `json:"counters"`
	PerLayer   map[string]float64               `json:"per_layer_metrics"`
	Spans      []span                           `json:"spans"`
}

// write stores the trace as JSON under dir and returns the file's path.
func (f *traceFile) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", f.Workload, f.Seed))
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank rule.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
