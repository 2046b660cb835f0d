package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ff "repro"
	"repro/internal/anneal"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/partition"
	"repro/internal/refine"
	"repro/internal/server"
	"repro/internal/store"
)

// service is an in-process ffserve on a loopback listener, sized for a
// two-core host: two workers and a portfolio width of at most two.
type service struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func startService() (*service, error) {
	srv, err := server.New(server.Config{Workers: 2, MaxParallelism: 2})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &service{srv: srv, ts: ts, client: ts.Client()}, nil
}

func (s *service) close() {
	s.ts.Close()
	s.srv.Close()
}

// do sends one request and reads the whole reply.
func (s *service) do(method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// partitionResponse mirrors the body ffserve answers POST /v1/partition with.
type partitionResponse struct {
	JobID  string     `json:"job_id"`
	Status string     `json:"status"`
	Cached bool       `json:"cached,omitempty"`
	Result *ff.Result `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// partition posts body to /v1/partition and decodes the reply into o's
// verdict: a transport error or a non-2xx status fails the request.
func (s *service) partition(o *outcome, body []byte) *partitionResponse {
	code, data, err := s.do(http.MethodPost, "/v1/partition", "application/json", body)
	if err != nil {
		o.errored("transport", "%v", err)
		return nil
	}
	if code/100 != 2 {
		o.errored("status", "status %d: %.200s", code, data)
		return nil
	}
	var resp partitionResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		o.errored("decode", "response: %v", err)
		return nil
	}
	return &resp
}

type healthz struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Store store.Stats `json:"store"`
}

// put uploads g in the binary encoding and returns its content id.
func (s *service) put(g *graph.Graph) (string, error) {
	code, data, err := s.do(http.MethodPut, "/v1/graphs", "application/octet-stream", graph.EncodeBinary(g))
	if err != nil {
		return "", err
	}
	var gr struct {
		ID string `json:"id"`
	}
	if want := graph.Digest(g); code/100 != 2 || json.Unmarshal(data, &gr) != nil || gr.ID != want {
		return "", fmt.Errorf("upload: status %d, id %q, want %q", code, gr.ID, want)
	}
	return gr.ID, nil
}

// recordHealth turns /healthz into the server's layer values.
func (s *service) recordHealth(tr *tracer) error {
	code, data, err := s.do(http.MethodGet, "/healthz", "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("healthz: status %d", code)
	}
	var h healthz
	if err := json.Unmarshal(data, &h); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if n := h.Cache.Hits + h.Cache.Misses; n > 0 {
		tr.value("server.cache_hit_ratio", float64(h.Cache.Hits)/float64(n))
	}
	tr.value("store.mem_bytes", float64(h.Store.MemBytes))
	return nil
}

// admission shadows the server's admission of an inline request body with
// the same public calls: request decode, graph parse or build, digest.
func admission(tr *tracer, parent int, req int64, body []byte) {
	var preq server.PartitionRequest
	tr.do("server.decode_request", parent, req, func() { _ = json.Unmarshal(body, &preq) })
	var g *graph.Graph
	if preq.Graph.METIS != "" {
		tr.do("graph.read_metis", parent, req, func() { g, _ = graph.ReadMETIS(strings.NewReader(preq.Graph.METIS)) })
	} else {
		tr.do("graph.build_edgelist", parent, req, func() { g, _ = buildEdgeList(preq.Graph) })
	}
	if g != nil {
		tr.do("graph.digest", parent, req, func() { graph.Digest(g) })
	}
}

// buildEdgeList builds the graph of an edge-list GraphSpec.
func buildEdgeList(spec server.GraphSpec) (*graph.Graph, error) {
	b := graph.NewBuilder(spec.N)
	for i, w := range spec.VertexWeights {
		b.SetVertexWeight(i, w)
	}
	for _, e := range spec.Edges {
		w := 1.0
		if len(e) == 3 {
			w = e[2]
		}
		b.AddEdge(int(e[0]), int(e[1]), w)
	}
	return b.Build()
}

// encodeResponse shadows the server's response encode.
func encodeResponse(tr *tracer, parent int, req int64, resp *partitionResponse) {
	tr.do("server.encode_response", parent, req, func() { _, _ = json.Marshal(resp) })
}

// graphSpecs renders g inline both ways a client can send it.
func graphSpecs(g *graph.Graph) (metis, edges []byte, err error) {
	var buf bytes.Buffer
	if err := graph.WriteMETIS(&buf, g); err != nil {
		return nil, nil, err
	}
	if metis, err = json.Marshal(server.GraphSpec{METIS: buf.String()}); err != nil {
		return nil, nil, err
	}
	spec := server.GraphSpec{N: g.NumVertices()}
	unit := g.UnitEdgeWeights()
	g.ForEachEdge(func(u, v int, w float64) {
		e := []float64{float64(u), float64(v)}
		if !unit {
			e = append(e, w)
		}
		spec.Edges = append(spec.Edges, e)
	})
	edges, err = json.Marshal(spec)
	return metis, edges, err
}

// serveAdmit: one client posts inline 10k-vertex graphs for a cheap
// deterministic method, cycling through a key pool whose answers are all
// cached, so the requests measure admission.
type serveAdmit struct {
	svc   *service
	insts []*instance
	specs [][3][]byte // per instance: METIS, edge-list and stored-id graph JSON
	keys  []admitKey
	next  atomic.Int64

	mu    sync.Mutex
	first map[admitKey]uint64 // parts hash of each key's first answer
}

type admitKey struct {
	inst, k int
	seed    int64
}

const (
	admitMethod = "multilevel-kway"
	// admitClients is one: with two, the requests of a run on a two-core
	// host shared with other tenants competed for one core's worth of time
	// as often as not, and the median latency swung by half between runs.
	admitClients = 1
	admitSeeds   = 48 // request seeds per (instance, k)
)

func setupServeAdmit(seed int64) (runner, error) {
	ks := []int{8, 32}
	w := &serveAdmit{first: map[admitKey]uint64{}}
	for _, s := range []struct {
		name string
		g    *graph.Graph
	}{{"geo10k", geo10k(seed)}, {"torus100", torus100()}} {
		in, err := newInstance(s.name, s.g, ks)
		if err != nil {
			return nil, err
		}
		metis, edges, err := graphSpecs(s.g)
		if err != nil {
			return nil, err
		}
		w.insts = append(w.insts, in)
		w.specs = append(w.specs, [3][]byte{metis, edges})
	}
	for i := range w.insts {
		for _, k := range ks {
			for s := 0; s < admitSeeds; s++ {
				w.keys = append(w.keys, admitKey{i, k, derive(seed, int64(i), int64(k), int64(s))})
			}
		}
	}
	// Interleave the pool so every stretch of requests mixes instances and k.
	rand.New(rand.NewSource(seed)).Shuffle(len(w.keys), func(i, j int) { w.keys[i], w.keys[j] = w.keys[j], w.keys[i] })
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	w.svc = svc
	for i, in := range w.insts {
		id, err := svc.put(in.g)
		if err != nil {
			svc.close()
			return nil, err
		}
		w.specs[i][2] = fmt.Appendf(nil, `{"id":%q}`, id)
	}
	return w, nil
}

func (w *serveAdmit) primary() (*graph.Graph, int) { return w.insts[0].g, 32 }
func (w *serveAdmit) close()                       { w.svc.close() }

// run first sends one untimed round through the key pool, which fills the
// result cache, so the timed requests measure the admission of cached keys
// and not the solver. The round names the graphs by their stored ids: a
// finished job keeps its graph for the job TTL, and one decoded copy per
// inline miss held the server's heap at ~460 MB, whose collection then
// dominated the timings. A later run (the traced half of a traced run) goes
// on through the pool where the previous one stopped.
func (w *serveAdmit) run(d time.Duration, tr *tracer) ([]outcome, time.Duration) {
	var outs []outcome
	if w.next.Load() == 0 {
		n := int64(len(w.keys))
		outs = w.clients(func(i int64) bool { return i < n }, true, nil)
		for i := range outs {
			outs[i].untimed = true
		}
	}
	start := time.Now()
	outs = append(outs, w.clients(func(int64) bool { return time.Since(start) < d }, false, tr)...)
	timed := time.Since(start)
	if tr != nil {
		if err := w.svc.recordHealth(tr); err != nil {
			outs = append(outs, outcome{fail: err.Error(), kind: "healthz", broken: true, untimed: true})
		}
	}
	return outs, timed
}

// clients runs the closed-loop clients, each sending request after request
// while more accepts the next request index.
func (w *serveAdmit) clients(more func(i int64) bool, byID bool, tr *tracer) []outcome {
	var mu sync.Mutex
	var outs []outcome
	var wg sync.WaitGroup
	for c := 0; c < admitClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w.next.Add(1) - 1; more(i); i = w.next.Add(1) - 1 {
				o := w.request(i, byID, tr)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// request sends request i: key i mod the pool size, by stored id when byID
// is set, else inline as METIS text two times in three and as an edge list
// otherwise. The shift by i/n rotates each key through both encodings from
// one round of the pool to the next. With an even split the median latency
// fell between the two encodings' clusters of cache hits and swung from run
// to run.
func (w *serveAdmit) request(i int64, byID bool, tr *tracer) outcome {
	n := int64(len(w.keys))
	key := w.keys[i%n]
	in := w.insts[key.inst]
	enc := 0
	switch {
	case byID:
		enc = 2
	case (i+i/n)%3 == 2:
		enc = 1
	}
	body := fmt.Appendf(nil, `{"graph":%s,"k":%d,"method":%q,"seed":%d}`, w.specs[key.inst][enc], key.k, admitMethod, key.seed)

	root := tr.begin("request", -1, i)
	defer tr.end(root)
	if tr != nil {
		admission(tr, root, i, body)
	}
	var o outcome
	call := tr.begin("server.http", root, i)
	start := time.Now()
	resp := w.svc.partition(&o, body)
	o.wall = time.Since(start)
	tr.end(call)
	if resp == nil {
		return o
	}
	o.class = [3]string{"metis-miss", "edges-miss", "id-miss"}[enc]
	if resp.Cached {
		o.class = [3]string{"metis-hit", "edges-hit", "id-hit"}[enc]
	}
	check(&o, tr, root, i, in.g, key.k, in.ref[key.k], resp.Result)
	if resp.Result != nil {
		h := partsHash(resp.Result.Parts)
		w.mu.Lock()
		if prev, ok := w.first[key]; !ok {
			w.first[key] = h
		} else if prev != h {
			o.errored("cache-mismatch", "%+v: parts differ from the first answer (cached=%v)", key, resp.Cached)
		}
		w.mu.Unlock()
	}
	if tr != nil && resp.Result != nil {
		encodeResponse(tr, root, i, resp)
		overhead := o.wall // a cache hit solves nothing
		if !resp.Cached {
			overhead -= resp.Result.Elapsed
		}
		tr.value("server.overhead_ms", ms(overhead))
	}
	return o
}

// serveChurn: one client alternately mutates a stored graph and
// re-partitions it by id, warm-started from the previous answer.
type serveChurn struct {
	svc    *service
	states []*graph.Graph // the base graph and its churned variants
	ids    []string       // their content ids
	refs   []float64      // their reference Mcuts
	steps  []churnStep    // one cycle of operations
	local  *store.Store   // the benchmark's own store, for the layer calls
	seed   int64
	op     int64
	parts  []int32 // the last valid answer
}

// churnStep moves the stored graph from state from to state to.
type churnStep struct {
	from, to int
	edits    []graph.EdgeEdit
	body     []byte
}

const (
	churnK       = 32
	churnMethod  = "annealing"
	churnBudget  = 250 * time.Millisecond
	churnBatches = 2
	// churnSteps lifts annealing's default step cap far above what 250 ms
	// can run, so the budget, not the cap, ends every solve.
	churnSteps = 50_000_000
)

func setupServeChurn(seed int64) (runner, error) {
	base := geo10k(seed)
	w := &serveChurn{seed: seed, states: []*graph.Graph{base}}
	r := rand.New(rand.NewSource(derive(seed, 2)))
	for b := 1; b <= churnBatches; b++ {
		do, undo := churn(base, 0.01, r)
		g, err := base.WithEdits(do)
		if err != nil {
			return nil, err
		}
		w.states = append(w.states, g)
		w.steps = append(w.steps, churnStep{from: 0, to: b, edits: do}, churnStep{from: b, to: 0, edits: undo})
	}
	for i, g := range w.states {
		ref, err := reference(g, []int{churnK})
		if err != nil {
			return nil, fmt.Errorf("churn state %d: %w", i, err)
		}
		w.refs = append(w.refs, ref[churnK])
		w.ids = append(w.ids, graph.Digest(g))
	}
	for i := range w.steps {
		body, err := json.Marshal(map[string]any{"edits": w.steps[i].edits})
		if err != nil {
			return nil, err
		}
		w.steps[i].body = body
	}
	local, err := store.Open("", 0)
	if err != nil {
		return nil, err
	}
	w.local = local
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	w.svc = svc
	if err := w.upload(); err != nil {
		svc.close()
		return nil, err
	}
	return w, nil
}

// upload stores the base graph and cold-solves it for the first warm start.
func (w *serveChurn) upload() error {
	if _, err := w.svc.put(w.states[0]); err != nil {
		return err
	}
	body, err := json.Marshal(server.PartitionRequest{
		Graph: server.GraphSpec{ID: w.ids[0]}, K: churnK, Method: churnMethod,
		Budget: churnBudget.String(), MaxSteps: churnSteps, Seed: derive(w.seed, 3),
	})
	if err != nil {
		return err
	}
	var o outcome
	resp := w.svc.partition(&o, body)
	if resp != nil {
		check(&o, nil, -1, 0, w.states[0], churnK, w.refs[0], resp.Result)
	}
	if o.broken {
		return fmt.Errorf("cold solve: %s", o.fail)
	}
	w.parts = resp.Result.Parts
	return nil
}

func (w *serveChurn) primary() (*graph.Graph, int) { return w.states[0], churnK }
func (w *serveChurn) close()                       { w.svc.close() }

func (w *serveChurn) run(d time.Duration, tr *tracer) ([]outcome, time.Duration) {
	var outs []outcome
	start := time.Now()
	for time.Since(start) < d {
		outs = append(outs, w.operation(tr))
	}
	timed := time.Since(start)
	if tr != nil {
		if err := w.svc.recordHealth(tr); err != nil {
			outs = append(outs, outcome{fail: err.Error(), kind: "healthz", broken: true, untimed: true})
		}
	}
	return outs, timed
}

// operation mutates the stored graph by one churn batch and re-partitions
// it warm from the previous answer; its latency spans both calls.
func (w *serveChurn) operation(tr *tracer) outcome {
	req := w.op
	step := w.steps[int(w.op)%len(w.steps)]
	w.op++
	g, warm := w.states[step.to], w.parts
	solveBody, err := json.Marshal(server.PartitionRequest{
		Graph: server.GraphSpec{ID: w.ids[step.to]}, K: churnK, Method: churnMethod,
		Budget: churnBudget.String(), MaxSteps: churnSteps, Seed: derive(w.seed, 4, req), WarmStart: warm,
	})
	if err != nil {
		return outcome{fail: err.Error(), kind: "encode", broken: true, untimed: true}
	}

	root := tr.begin("request", -1, req)
	defer tr.end(root)
	o := outcome{class: "mutate+solve"}
	start := time.Now()
	call := tr.begin("server.http", root, req)
	code, data, err := w.svc.do(http.MethodPost, "/v1/graphs/"+w.ids[step.from]+"/mutate", "application/json", step.body)
	tr.end(call)
	var gr struct {
		ID string `json:"id"`
	}
	switch {
	case err != nil:
		o.errored("transport", "mutate: %v", err)
	case code/100 != 2:
		o.errored("status", "mutate: status %d: %.200s", code, data)
	case json.Unmarshal(data, &gr) != nil || gr.ID != w.ids[step.to]:
		o.errored("mutate-id", "mutate gave id %q, want %q", gr.ID, w.ids[step.to])
	}
	if o.broken {
		o.wall = time.Since(start)
		return o
	}
	call = tr.begin("server.http", root, req)
	solveStart := time.Now()
	resp := w.svc.partition(&o, solveBody)
	solveWall := time.Since(solveStart)
	o.wall = time.Since(start)
	tr.end(call)
	if resp == nil {
		return o
	}
	check(&o, tr, root, req, g, churnK, w.refs[step.to], resp.Result)
	if o.broken {
		return o
	}
	var floor float64
	tr.do("objective.evaluate_all", root, req, func() { floor, err = evalMcut(g, warm, churnK) })
	if err != nil {
		o.errored("recompute", "warm start: %v", err)
		return o
	}
	if resp.Result.Mcut > floor*(1+mcutTolerance) {
		o.errored("floor", "Mcut %v worse than its warm start's %v", resp.Result.Mcut, floor)
		return o
	}
	checkBudget(&o, solveWall, churnBudget)
	w.parts = resp.Result.Parts
	if tr != nil {
		w.layers(step, g, warm, solveBody, resp, tr, root, req)
		tr.value("server.overhead_ms", ms(o.wall-resp.Result.Elapsed))
	}
	return o
}

// layers shadows the operation's work in the graph, store, refine and
// anneal layers.
func (w *serveChurn) layers(step churnStep, g *graph.Graph, warm []int32, body []byte, resp *partitionResponse, tr *tracer, root int, req int64) {
	var derived *graph.Graph
	tr.do("graph.with_edits", root, req, func() { derived, _ = w.states[step.from].WithEdits(step.edits) })
	if derived == nil {
		return
	}
	tr.do("graph.encode_binary", root, req, func() { graph.EncodeBinary(derived) })
	var id string
	tr.do("store.put", root, req, func() { id, _, _ = w.local.Put(derived) })
	tr.do("store.get", root, req, func() { w.local.Get(id) })
	var preq server.PartitionRequest
	tr.do("server.decode_request", root, req, func() { _ = json.Unmarshal(body, &preq) })
	var p *partition.P
	tr.do("refine.kway", root, req, func() {
		if p, _ = partition.FromAssignment(g, warm, churnK); p != nil {
			refine.KWay(p, refine.KWayOptions{Objective: objective.MCut})
		}
	})
	if p != nil {
		var steps int
		var el time.Duration
		tr.do("anneal.partition", root, req, func() {
			start := time.Now()
			if res, err := anneal.PartitionContext(context.Background(), g, churnK, anneal.Options{Budget: churnBudget, MaxSteps: churnSteps, Seed: preq.Seed, Initial: p}); err == nil {
				steps = res.Steps
			}
			el = time.Since(start)
		})
		tr.rate("anneal.steps_per_s", int64(steps), el)
	}
	tr.value("facade.solve_ms", ms(resp.Result.Elapsed))
	encodeResponse(tr, root, req, resp)
}
