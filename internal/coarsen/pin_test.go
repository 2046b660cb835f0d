package coarsen

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
)

// Ladder pins: the digest of every level HEM and HEMProtected build on the
// 10k-vertex geometric graph every benchmark uses, and on a float-weighted
// copy of it with non-unit vertex weights and self-loops, where the order in
// which contraction sums weights shows in the low bits. A level's digest
// covers its binary encoding (CSR, vertex weights, self-loops) and its
// fine-to-coarse map, so any change to the matching, the coarse vertex
// numbering or a single weight fold fails here.
type ladderPin struct {
	name      string
	weighted  bool
	protected bool
	levels    []string // hex digest prefix per level, finest first
}

var ladderPins = []ladderPin{
	{name: "geo10k/HEM", levels: []string{
		"9e75713813a0df4f", "3c06c2274e3e1c35", "fdf2d3d35c0e190b", "b4486f9b7e33f1ad", "8e3e92706c6fbadc",
		"74242271e5103c82", "ccdd0516049eb97b", "ad5efcb4dd246a71", "6bce3580f17154c4",
	}},
	{name: "geo10k/HEMProtected", protected: true, levels: []string{
		"5b789127cb91f49a", "06b24560fad429b6", "cbbacb12aa5ade83", "6e72c8693ee251a4", "4ab55972829b3892",
		"f5f751f930efd0e8", "4c7c5971a8a8a70f", "4945a63f7490e93a", "3b3daf8ff321072f", "59678d396f9d4bc4",
	}},
	{name: "geo10k-weighted/HEM", weighted: true, levels: []string{
		"8ebf2a133fa6b7f2", "2b80adeb5d43d45d", "4c64ade7bd6c0693", "089a9a247ae838ad", "1a1ab5a4897f33d3",
		"f5cf8745703759a5", "a178d8cc02dc5a17", "a35838a766a442be", "c97e0014cc11d81a",
	}},
	{name: "geo10k-weighted/HEMProtected", weighted: true, protected: true, levels: []string{
		"3188208688f8bb4d", "602bef0a3531bd91", "4d203e22fe6dab1a", "6459c5cb6bcd2dc2", "7bcd760094d59240",
		"c48b695e2f63bd73", "6a5e19226a81eac1", "7e9e9ddde8b0c02b", "cca7ea84c3da43f8", "cd6561c986a2ed94",
	}},
}

// pinWeighted reweights g: edge and vertex weights are fractional multiples
// of a hash of their ids, and every seventh vertex gets a self-loop.
func pinWeighted(g *graph.Graph) *graph.Graph {
	mix := func(x uint64) uint64 {
		x ^= x >> 31
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 29
		return x
	}
	n := g.NumVertices()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, float64(1+mix(uint64(v)*0x9e3779b97f4a7c15)%7)*0.3)
		if v%7 == 0 {
			b.AddSelfLoop(v, float64(1+mix(uint64(v)+17)%5)*0.11)
		}
	}
	g.ForEachEdge(func(u, v int, _ float64) {
		h := mix(uint64(u)*0x9e3779b97f4a7c15 ^ uint64(v)*0xc2b2ae3d27d4eb4f)
		b.AddEdge(u, v, float64(1+h%9)*0.37)
	})
	return b.MustBuild()
}

// bandGuides labels g by bands of BFS depth from two far-apart sources, two
// complete 8-labelings whose cuts cross the way two parent partitions do.
func bandGuides(g *graph.Graph) [][]int32 {
	n := g.NumVertices()
	guides := make([][]int32, 2)
	for i, src := range []int{0, n / 2} {
		lv := graph.BFSLevels(g, src)
		gd := make([]int32, n)
		for v, d := range lv {
			gd[v] = (d / 5) % 8
		}
		guides[i] = gd
	}
	return guides
}

func levelDigest(l Level) string {
	h := sha256.New()
	h.Write(graph.EncodeBinary(l.G))
	var buf [4]byte
	for _, c := range l.Map {
		binary.LittleEndian.PutUint32(buf[:], uint32(c))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func TestLadderPins(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-vertex ladders in -short mode")
	}
	geo := graph.RandomGeometric(10000, 0.02, 1)
	weighted := pinWeighted(geo)
	for _, pin := range ladderPins {
		t.Run(pin.name, func(t *testing.T) {
			g := geo
			if pin.weighted {
				g = weighted
			}
			var ladder []Level
			if pin.protected {
				var err error
				ladder, _, err = HEMProtected(context.Background(), g, 64, 1, bandGuides(g))
				if err != nil {
					t.Fatal(err)
				}
			} else {
				ladder = HEM(g, 64, 1)
			}
			got := make([]string, len(ladder))
			for i, l := range ladder {
				got[i] = levelDigest(l)
			}
			if len(got) != len(pin.levels) {
				t.Fatalf("%d levels, pinned %d", len(got), len(pin.levels))
			}
			for i := range got {
				if got[i] != pin.levels[i] {
					t.Fatalf("level %d digest %s, pinned %s", i, got[i], pin.levels[i])
				}
			}
		})
	}
}
