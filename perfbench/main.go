// Command perfbench is the repository's request-level benchmark. It sends
// partition requests (graph in, solve, assignment out) through the library
// facade and through an in-process ffserve, validates every answer, and
// prints the end-to-end metrics of one named workload. With --trace 1 it
// instead times calls into each layer's public functions from its own code
// and prints per-layer metrics. Run it through run.sh from the repository
// root; README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
)

// runner is a workload after setup.
type runner interface {
	// run issues requests for about d, in whole passes over the workload's
	// request mix where it has one, and returns every outcome with the
	// length of the timed phase. A non-nil tracer records spans and layer
	// values on the way.
	run(d time.Duration, tr *tracer) ([]outcome, time.Duration)
	// primary is the graph and part count the layer sweep measures on.
	primary() (*graph.Graph, int)
	close()
}

type workload struct {
	name  string
	setup func(seed int64) (runner, error)
}

var workloads = []workload{
	{"facade-default", setupFacadeDefault},
	{"serve-admit", setupServeAdmit},
	{"serve-churn", setupServeChurn},
	{"fixed-work", setupFixedWork},
}

// setupRepeats is how many times an untraced run sets its workload up; the
// reported setup_s is the median.
const setupRepeats = 3

// layerMetrics lists the traced run's metrics in output order.
var layerMetrics = []struct{ name, unit string }{
	{"server.overhead_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.decode_request_ms", "ms"},
	{"server.encode_response_ms", "ms"},
	{"graph.read_metis_ms", "ms"},
	{"graph.build_edgelist_ms", "ms"},
	{"graph.digest_ms", "ms"},
	{"graph.with_edits_ms", "ms"},
	{"graph.encode_binary_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.mem_bytes", "bytes"},
	{"refine.kway_ms", "ms"},
	{"core.init_ms", "ms"},
	{"core.events_per_s", "1/s"},
	{"anneal.steps_per_s", "1/s"},
	{"order.locality_ms", "ms"},
	{"graph.relabel_ms", "ms"},
	{"coarsen.hem_ms", "ms"},
	{"vcycle.build_ms", "ms"},
	{"vcycle.levels", "count"},
	{"memetic.recombine_ms", "ms"},
	{"genetic.generations_per_s", "1/s"},
	{"engine.exchange_rounds", "count"},
	{"multilevel.kway_ms", "ms"},
	{"objective.evaluate_all_ms", "ms"},
	{"facade.solve_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	traceDir := fs.String("trace-dir", "", "directory for the span dump of a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := bench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func bench(name string, seed int64, d time.Duration, traced bool, traceDir string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if d <= 0 {
		return errors.New("--seconds must be positive")
	}
	if traced {
		return benchTraced(w, seed, d, traceDir)
	}
	var setups []float64
	var r runner
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // start each setup from a collected heap
		t := time.Now()
		ri, err := w.setup(seed)
		if err != nil {
			return fmt.Errorf("setup %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if r != nil {
			r.close()
		}
		r = ri
	}
	defer r.close()
	outs, timed := r.run(d, nil)

	sum := summarize(outs)
	lat := sum.walls
	tailV, tailP := tail(lat)
	res := result{Correct: sum.broken == 0, Attempted: len(outs), Failed: sum.broken, Metrics: map[string]metric{
		"setup_s":         {median(setups), "s"},
		"latency_p50_ms":  {median(lat), "ms"},
		"latency_tail_ms": {tailV, "ms"},
		"throughput_rps":  {float64(sum.ok) / timed.Seconds(), "1/s"},
		"success_rate":    {float64(sum.ok) / float64(len(lat)), "ratio"},
		"mcut_ratio_p50":  {quantile(sum.ratios, 0.5), "ratio"},
		"mcut_ratio_p90":  {quantile(sum.ratios, 0.9), "ratio"},
		"rss_peak_mb":     {rssPeakMB(), "MB"},
	}}
	detail := map[string]any{
		"workload": w.name, "seed": seed, "trace": 0,
		"timed_s": timed.Seconds(), "setup_runs_s": setups,
		"requests": len(outs), "untimed_requests": len(outs) - len(lat), "succeeded": sum.ok,
		"fail_rate":        1 - float64(sum.ok)/float64(len(lat)),
		"failed_incorrect": sum.broken, "failures": sum.kinds, "first_failure": sum.first,
		"latency_tail_percentile": tailP, "latency_samples": len(lat),
		"class_latency_p50_ms": classMedians(outs),
		"ratio_ceiling":        ratioCeiling, "budget_slack_ms": ms(budgetSlack),
	}
	return emit(detail, res)
}

func benchTraced(w *workload, seed int64, d time.Duration, traceDir string) error {
	r, err := w.setup(seed)
	if err != nil {
		return fmt.Errorf("setup %s: %w", w.name, err)
	}
	defer r.close()
	// The first half runs untraced so the overhead of tracing can be read
	// against it; the second half runs with spans.
	plain, _ := r.run(d/2, nil)
	tr := newTracer()
	traced, _ := r.run(d/2, tr)
	g, k := r.primary()
	sw, err := sweep(tr.has, g, k, seed)
	if err != nil {
		return fmt.Errorf("layer sweep: %w", err)
	}
	p, q := summarize(plain), summarize(traced)
	self, swSelf := tr.selfTimes(), sw.selfTimes()
	overhead, classP50 := tracingOverhead(plain, traced)
	tr.value("trace.overhead_ms", overhead)
	tr.value("trace.unattributed_ms", median(self["request"]))

	res := result{
		Correct: p.broken+q.broken == 0, Attempted: len(plain) + len(traced),
		Failed: p.broken + q.broken, Metrics: map[string]metric{},
	}
	for _, m := range layerMetrics {
		v, ok := tr.layerMetric(m.name, self)
		if !ok {
			v, ok = sw.layerMetric(m.name, swSelf)
		}
		if !ok {
			return fmt.Errorf("no observation for layer metric %s", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	detail := map[string]any{
		"workload": w.name, "seed": seed, "trace": 1,
		"untraced_requests": len(plain), "traced_requests": len(traced),
		"untraced_latency_p50_ms": median(p.walls), "traced_latency_p50_ms": median(q.walls),
		"traced_class_latency_p50_ms": classP50,
		"failures":                    mergeCounts(p.kinds, q.kinds), "spans": len(tr.spans),
	}
	if traceDir != "" {
		base := filepath.Join(traceDir, w.name+"-seed"+strconv.FormatInt(seed, 10))
		for path, t := range map[string]*tracer{base + ".jsonl": tr, base + "-sweep.jsonl": sw} {
			if err := t.dump(path); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
		}
		detail["span_file"] = base + ".jsonl"
	}
	return emit(detail, res)
}

// tracingOverhead is the traced phase's median latency minus the untraced
// phase's, taken request class by class (request type, instance, cache hit
// or miss) and weighted by the traced counts, so two phases that happen to
// hold different mixes do not read as overhead. It also returns the traced
// median per class.
func tracingOverhead(plain, traced []outcome) (float64, map[string]float64) {
	p, t := classMedians(plain), classMedians(traced)
	counts := map[string]int{}
	for _, o := range traced {
		if !o.untimed {
			counts[o.class]++
		}
	}
	var sum, n float64
	for c, tm := range t {
		if pm, ok := p[c]; ok {
			sum += float64(counts[c]) * (tm - pm)
			n += float64(counts[c])
		}
	}
	if n == 0 { // no class in common: compare the phases whole
		return median(summarize(traced).walls) - median(summarize(plain).walls), t
	}
	return sum / n, t
}

// classMedians is the median latency per timed request class, in ms.
func classMedians(outs []outcome) map[string]float64 {
	m := map[string][]float64{}
	for _, o := range outs {
		if o.untimed {
			continue
		}
		m[o.class] = append(m[o.class], ms(o.wall))
	}
	out := map[string]float64{}
	for c, ws := range m {
		out[c] = median(ws)
	}
	return out
}

// summary condenses outcomes for the metrics. Untimed requests count only
// toward the failures.
type summary struct {
	walls, ratios []float64
	ok, broken    int
	kinds         map[string]int
	first         map[string]string
}

func summarize(outs []outcome) summary {
	s := summary{kinds: map[string]int{}, first: map[string]string{}}
	for _, o := range outs {
		if !o.untimed {
			s.walls = append(s.walls, ms(o.wall))
			s.ratios = append(s.ratios, o.ratio)
		}
		switch {
		case o.fail == "":
			if !o.untimed {
				s.ok++
			}
		default:
			if o.broken {
				s.broken++
			}
			s.kinds[o.kind]++
			if _, seen := s.first[o.kind]; !seen {
				s.first[o.kind] = o.fail
			}
		}
	}
	return s
}

func mergeCounts(a, b map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range a {
		out[k] += v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// emit prints the human-readable detail line and then the result line,
// which must come last.
func emit(detail map[string]any, res result) error {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	dj, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("detail %s\n%s\n", dj, rj)
	return nil
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// derive mixes the workload seed with indices into a request seed.
func derive(seed int64, idx ...int64) int64 {
	h := uint64(seed)
	for _, i := range idx {
		h ^= uint64(i) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return int64(h>>2) + 1
}
