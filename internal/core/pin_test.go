package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/airspace"
	"repro/internal/graph"
)

// Trajectory pins for paths the 12x12 golden never reaches: a 10k-vertex
// geometric graph whose Algorithm 2 initialization stalls on partnerless
// atoms (most fusion steps find no partner under the weight cap), a
// 100x100 grid with integer weights at k=32, the airspace workload at k=32,
// and a 30x30 grid with fractional weights whose initialization finds
// partners for atoms that were partnerless before the molecule changed.
// Each pin fixes the exact Mcut bits and a hash of the raw slot assignment
// after 300 events, so any change to the RNG schedule, the slot choice of a
// fission or the summation order of the energy fails here.
type trajectoryPin struct {
	name  string
	graph func(t *testing.T) *graph.Graph
	k     int
	seed  int64
	mcut  uint64 // math.Float64bits of Result.Energy
	parts uint64 // assignmentHash of Result.Best
}

var trajectoryPins = []trajectoryPin{
	{
		name:  "geo10k-stuck-init",
		graph: func(*testing.T) *graph.Graph { return graph.RandomGeometric(10000, 0.02, 2) },
		k:     8,
		seed:  2,
		mcut:  0x3fcc23ad0a004c65,
		parts: 0x064d9f7cd2ecd02c,
	},
	{
		name:  "wgrid100",
		graph: func(*testing.T) *graph.Graph { return pinWeightedGrid(100, 0, 1) },
		k:     32,
		seed:  1,
		mcut:  0x4000dfdedaffa12b,
		parts: 0xfb6eb61d1a4993da,
	},
	{
		name: "airspace",
		graph: func(t *testing.T) *graph.Graph {
			g, _, err := airspace.Generate(airspace.Default())
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		k:     32,
		seed:  1,
		mcut:  0x404280eb575aff66,
		parts: 0x98c589be64a12cd2,
	},
	{
		name:  "wgrid30-revisited-partnerless",
		graph: func(*testing.T) *graph.Graph { return pinWeightedGrid(30, 5, 0.37) },
		k:     16,
		seed:  2,
		mcut:  0x3ffe553476d0fa94,
		parts: 0xec5cd6e9d53428e9,
	},
}

// pinWeightedGrid is a side x side grid whose edge weights are scale times
// an integer 1..9 drawn from a hash of the endpoints and seed.
func pinWeightedGrid(side int, seed int64, scale float64) *graph.Graph {
	return graph.WeightedGrid2D(side, side, func(u, v int) float64 {
		h := uint64(u)*0x9e3779b97f4a7c15 ^ uint64(v)*0xc2b2ae3d27d4eb4f ^ uint64(seed)*0x165667b19e3779f9
		h ^= h >> 31
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
		return float64(1+h%9) * scale
	})
}

// assignmentHash is FNV-1a over the little-endian raw part ids (slot ids,
// not compacted ones).
func assignmentHash(assign []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, a := range assign {
		binary.LittleEndian.PutUint32(buf[:], uint32(a))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func TestTrajectoryPins(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-vertex runs; CI runs the pins in their own step")
	}
	for _, pin := range trajectoryPins {
		pin := pin
		t.Run(pin.name, func(t *testing.T) {
			g := pin.graph(t)
			res, err := Partition(g, pin.k, Options{Seed: pin.seed, MaxSteps: 300})
			if err != nil {
				t.Fatal(err)
			}
			mcut := math.Float64bits(res.Energy)
			parts := assignmentHash(res.Best.Assignment())
			if mcut != pin.mcut || parts != pin.parts {
				t.Fatalf("Mcut %v (bits %#x), parts hash %#x; pinned Mcut %v (bits %#x), parts hash %#x",
					res.Energy, mcut, parts, math.Float64frombits(pin.mcut), pin.mcut, pin.parts)
			}
		})
	}
}
