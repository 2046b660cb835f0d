package graph

import (
	"math/rand"
	"strings"
	"testing"
)

// digestPins are content digests recorded before ContentHash staged its
// words in a block buffer and before Build, ReadMETIS and WithEdits shared
// Contract's assembly core. Each instance is reached through every
// constructor that can produce it; all must land on the pinned digest.
var digestPins = []struct {
	name   string
	digest string
	graph  func(t *testing.T) *Graph
}{
	{"geo10k-seed1", "42f29fb4c8d8463dd691701da50bea662f680f9aa3f1ded25c764ce6113f09fa", func(*testing.T) *Graph { return RandomGeometric(10000, 0.02, 1) }},
	{"torus100", "db0975b5fe273841b480ce95f85e2cd769012f8988cd5db41970f5d73b6cc872", func(*testing.T) *Graph { return Torus2D(100, 100) }},
	{"weighted-grid", "0b4252d06703199acc8a48b97e7d88765212819b4e85ba1216f8fe66c3d1ca1d", func(*testing.T) *Graph { return pinGrid() }},
	{"loop-contraction", "f6ba30947c452ce00a4a3d1efb60d842355c2366530176eb87044744ff89e2f9", func(t *testing.T) *Graph { return pinContraction(t) }},
	{"empty", "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb", func(*testing.T) *Graph { return NewBuilder(0).MustBuild() }},
}

// pinGrid is a 60x60 grid with fractional, repeating edge weights.
func pinGrid() *Graph {
	return WeightedGrid2D(60, 60, func(u, v int) float64 { return 0.1 + float64((u*7+v*13)%17)/3 })
}

// pinContraction pairs the weighted grid's vertices (v and v+1 when v is
// even) twice over, so the second quotient folds parallel coarse edges and
// carries loops.
func pinContraction(t *testing.T) *Graph {
	g := pinGrid()
	for level := 0; level < 2; level++ {
		n := g.NumVertices()
		m := make([]int32, n)
		for v := range m {
			m[v] = int32(v / 2)
		}
		var err error
		if g, err = Contract(g, m, (n+1)/2); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestDigestPins(t *testing.T) {
	for _, pin := range digestPins {
		g := pin.graph(t)
		if got := Digest(g); got != pin.digest {
			t.Errorf("%s: digest %s, pinned %s", pin.name, got, pin.digest)
		}
		var text strings.Builder
		if err := WriteMETIS(&text, g); err != nil {
			t.Fatal(err)
		}
		if !g.HasLoops() {
			parsed, err := ReadMETIS(strings.NewReader(text.String()))
			if err != nil {
				t.Fatalf("%s: %v", pin.name, err)
			}
			if got := Digest(parsed); got != pin.digest {
				t.Errorf("%s via METIS: digest %s, pinned %s", pin.name, got, pin.digest)
			}
		}
		edited, err := g.WithEdits(nil)
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		if got := Digest(edited); got != pin.digest {
			t.Errorf("%s via WithEdits: digest %s, pinned %s", pin.name, got, pin.digest)
		}
		if got := Digest(shuffledRebuild(g, rand.New(rand.NewSource(1)))); got != pin.digest {
			t.Errorf("%s via shuffled Builder: digest %s, pinned %s", pin.name, got, pin.digest)
		}
		decoded, err := DecodeBinary(EncodeBinary(g))
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		if got := Digest(decoded); got != pin.digest {
			t.Errorf("%s via binary: digest %s, pinned %s", pin.name, got, pin.digest)
		}
	}
}

// shuffledRebuild feeds g's edges, vertex weights and loops to a Builder
// with the edges in random order and random endpoint orientation.
func shuffledRebuild(g *Graph, r *rand.Rand) *Graph {
	n := g.NumVertices()
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, g.VertexWeight(v))
		if l := g.VertexLoop(v); l > 0 {
			b.AddSelfLoop(v, l)
		}
	}
	for _, e := range r.Perm(g.NumEdges()) {
		u, v := g.EdgeEndpoints(e)
		if r.Intn(2) == 0 {
			u, v = v, u
		}
		b.AddEdge(u, v, g.EdgeWeightOf(e))
	}
	return b.MustBuild()
}
