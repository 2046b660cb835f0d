package graph

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// metisSeeds are the in-code seeds of both METIS fuzz targets: valid
// listings in every format code, and one input per rejection the reader
// makes.
var metisSeeds = []string{
	"",                                       // empty input
	"4 4\n2 4\n1 3\n2 4\n3 1\n",              // plain 4-ring
	"% comment\n\n4 4\n2 4\n1 3\n2 4\n3 1\n", // comments and blanks
	"4 4 011\n2 2 4 1\n3 1 1 2\n2 2 4 3\n3 3 1 1\n", // vertex + edge weights
	"4 4 001\n2 1 4 1\n1 1 3 1\n2 1 4 1\n3 1 1 1\n", // edge weights only
	"4 4 010\n1 2 4\n2 1 3\n1 2 4\n2 3 1\n",         // vertex weights only
	"4 4 100\n2 4\n1 3\n2 4\n3 1\n",                 // vertex sizes: unsupported
	"x y\n",                                         // non-numeric header
	"2 1\n2\n\n",                                    // asymmetric: only one endpoint lists the edge
	"2 1\n2 1\n",                                    // stray token parsed as weightless neighbor
	"2 1 001\n2\n1\n",                               // missing edge weight
	"2 1 001\n2 2\n1 3\n",                           // edge listed with two different weights
	"3 9 011\n",                                     // header promises more than the body holds
	"1 0\n\n",                                       // single vertex, no edges
	"2 1\n2 0.5\n1 0.5\n",                           // float where a neighbor index belongs
	"5 2\n2\n1 3\n2\n5\n4\n",                        // disconnected
	"2 1\n3\n1\n",                                   // neighbor index out of range
	"2 1\n-1\n1\n",                                  // negative neighbor index
	"2 1\n1\n2\n",                                   // self-loop via 1-indexing confusion
	"4 2\n2 4\n1 3\n2 4\n3 1\n",                     // header edge count disagrees
	"1000000000 0\n",                                // huge vertex count, no body: must fail fast
	"-1 0\n",                                        // negative vertex count
	"2 -1\n\n\n",                                    // negative edge count
	"3000000000 0\n",                                // vertex count beyond int32
	"2 1 001\n2 NaN\n1 NaN\n",                       // NaN edge weight
	"2 2\n2 2\n1 1\n",                               // edge listed four times
	"2 1\n2 2\n\n",                                  // one endpoint lists the edge twice, other never
	"3 2\n2 2\n1 1 3\n2\n",                          // repeated mention hiding among valid edges
	"2 1\r\n2\r\n1\r\n",                             // CRLF line ends
	"3 2\n2\u00a03\n1\u2028\n\u30001\n",             // Unicode spaces separate fields
	"3 2\n+2 003\n1\n1\n",                           // signed and zero-padded neighbors
	"3 2\n2 3\n% comment inside the body\n1\n1\n",  // body comment line
	"2 1 001\n2 1e0\n1 1.0\n",                      // one weight, two spellings
	"2 1 001\n2 0x1p-2\n1 0.25\n",                  // hex float weight
	"2 1 001\n2 1e400\n1 1e400\n",                  // weight overflows to +Inf
	"2 1 001\n2 1_0\n1 10\n",                       // underscore in a weight
	"2 1 011\n1.5 2 7\n2.5 1 7\n",                  // fractional vertex weights
	"2 1\n99999999999999999999\n1\n",               // neighbor overflows int
	"1 0\n1\n",                                     // vertex lists itself
	"3 3\n2 3\n1 3\n1 2\n",                         // triangle
	"3 2\n3 2\n1\n1\n",                             // descending neighbor order
	"3 2\n2\n1 3\n\n",                              // asymmetric, balanced total arc count
	"3 3\n2\n3\n1\n",                               // directed cycle: every vertex balanced, rows ascending
	"3 2 001\n2 1 3 2\n1 1\n1 3\n",                 // ascending rows, mismatched weight
	"2 1 001\n2 1e308\n1 1e308\n",                  // total edge weight past half the float64 range
	"3 2 001\n2 1e308\n1 1e308 3 1e308\n2 1e308\n", // total edge weight overflows to +Inf
	"2 0 010\n1e308\n1e308\n",                      // total vertex weight overflows to +Inf
}

// FuzzReadMETIS asserts the reader's contract on arbitrary input: it must
// either return a graph or an error — never panic — and any graph it does
// accept must be internally consistent and survive a write/re-read
// round-trip.
func FuzzReadMETIS(f *testing.F) {
	for _, s := range metisSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadMETIS(bytes.NewReader(data))
		if err != nil {
			if g != nil {
				t.Fatal("ReadMETIS returned both a graph and an error")
			}
			return
		}
		// Accepted graphs must be consistent…
		n := g.NumVertices()
		for v := 0; v < n; v++ {
			nbrs := g.Neighbors(v)
			wts := g.Weights(v)
			if len(nbrs) != len(wts) {
				t.Fatalf("vertex %d: %d neighbors, %d weights", v, len(nbrs), len(wts))
			}
			for i, u := range nbrs {
				if int(u) < 0 || int(u) >= n || int(u) == v {
					t.Fatalf("vertex %d: bad neighbor %d", v, u)
				}
				if wts[i] <= 0 {
					t.Fatalf("edge {%d,%d}: non-positive weight %g", v, u, wts[i])
				}
				if w, ok := g.EdgeWeight(int(u), v); !ok || w != wts[i] {
					t.Fatalf("edge {%d,%d} not symmetric", v, u)
				}
			}
		}
		// …and round-trip through the writer unchanged.
		var buf strings.Builder
		if err := WriteMETIS(&buf, g); err != nil {
			t.Fatalf("writing accepted graph: %v", err)
		}
		g2, err := ReadMETIS(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-reading written graph: %v\n%s", err, buf.String())
		}
		if g2.NumVertices() != n || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %dv/%de -> %dv/%de",
				n, g.NumEdges(), g2.NumVertices(), g2.NumEdges())
		}
		for v := 0; v < n; v++ {
			nbrs, nbrs2 := g.Neighbors(v), g2.Neighbors(v)
			if len(nbrs) != len(nbrs2) {
				t.Fatalf("round trip changed degree of %d", v)
			}
			for i := range nbrs {
				if nbrs[i] != nbrs2[i] || g.Weights(v)[i] != g2.Weights(v)[i] {
					t.Fatalf("round trip changed adjacency of %d", v)
				}
			}
		}
	})
}

// FuzzReadMETISMatchesReference holds ReadMETIS to the frozen
// referenceReadMETIS: on any input both must accept or both reject, and an
// accepted graph must be identical in every array. The one deliberate
// difference: ReadMETIS also rejects what the reference accepts with
// weight totals past maxTotal. It replays the in-code seeds and the
// committed FuzzReadMETIS corpus.
func FuzzReadMETISMatchesReference(f *testing.F) {
	for _, s := range metisSeeds {
		f.Add([]byte(s))
	}
	for _, data := range committedCorpus(f, "FuzzReadMETIS") {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadMETIS(bytes.NewReader(data))
		want, refErr := referenceReadMETIS(bytes.NewReader(data))
		if refErr == nil && !(want.totW+want.totLW <= maxTotal && want.totVW <= maxTotal) {
			want, refErr = nil, errors.New("totals past maxTotal")
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ReadMETIS error %v, reference error %v on %q", err, refErr, data)
		}
		if err == nil {
			sameAsBuilder(t, "metis", got, want)
		}
	})
}

// committedCorpus returns the inputs stored under testdata/fuzz/<target>,
// each a "go test fuzz v1" file holding one []byte value.
func committedCorpus(tb testing.TB, target string) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		value := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		s, err := strconv.Unquote(value)
		if err != nil || len(lines) != 2 {
			tb.Fatalf("%s: not a one-value corpus file", name)
		}
		out = append(out, []byte(s))
	}
	return out
}
