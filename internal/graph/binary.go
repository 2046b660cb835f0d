package graph

// Binary CSR codec: the persistent, content-addressed on-disk form of a
// Graph, designed so a stored graph is admitted into a solve with zero
// parsing and near-zero build cost.
//
// The layout is a fixed little-endian header followed by the canonical CSR
// arrays, each section padded to 8 bytes so every float64 section is aligned
// for direct aliasing:
//
//	offset  0  magic "FFGB"
//	offset  4  version byte (1)
//	offset  5  flags byte (bit 0: self-loop section present)
//	offset  6  reserved uint16 (zero)
//	offset  8  n uint32 (vertices)
//	offset 12  m uint32 (undirected edges)
//	offset 16  SHA-256 content digest (ContentHash of the graph)
//	offset 48  xadj    (n+1)*int32, zero-padded to 8 bytes
//	       ... adjncy  2m*int32, zero-padded to 8 bytes
//	       ... adjwgt  2m*float64
//	       ... vwgt    n*float64
//	       ... lwgt    n*float64, only when the loop flag is set
//
// Only the canonical content travels; the derived arrays (edge ids and
// endpoints, weighted degrees, totals, unit-weight flags) are reconstructed
// in one deterministic O(n+m) pass at decode time, so a tampered file cannot
// smuggle inconsistent derived state past the digest, and the reconstruction
// is bit-identical to what Builder.Build computes for the same graph.
//
// Decode validates everything before trusting anything: header counts
// against the buffer length (no attacker-controlled allocation), xadj
// monotonicity, the canonical neighbor order Build produces (ascending
// smaller-than-self prefix, ascending larger-than-self suffix), symmetric
// arcs with byte-identical weights, positive finite weights, zero padding,
// exact length (no trailing bytes), and finally the recomputed content
// digest against the header's.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
)

// binaryMagic identifies a binary-encoded graph.
var binaryMagic = [4]byte{'F', 'F', 'G', 'B'}

// BinaryVersion is the current binary-graph codec version; DecodeBinary
// rejects anything newer.
const BinaryVersion = 1

// binaryHeaderLen is the fixed header size (48 bytes, 8-aligned).
const binaryHeaderLen = 4 + 1 + 1 + 2 + 4 + 4 + sha256.Size

// binaryFlagLoops marks the presence of the self-loop weight section.
const binaryFlagLoops = 1 << 0

// maxBinaryVertices bounds the vertex/edge counts a decoder accepts; CSR
// indices are int32, so anything larger cannot round-trip anyway.
const maxBinaryVertices = 1<<31 - 1

// ContentHash hashes a graph's full content — vertex count, vertex weights,
// the sorted CSR adjacency with edge weights, and (when present) self-loop
// weights — so the same graph reaches the same digest no matter how it was
// supplied (METIS text, edge list, binary file, in any edge order). The
// digest is the graph's identity everywhere: the server's result-cache and
// island exchange keys, the wire codec's cross-graph refusal, and the id a
// stored graph is addressed by. Loop-free graphs hash the exact byte stream
// the pre-store releases hashed, so their digests are stable across
// versions.
func ContentHash(g *Graph) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	writeFloat := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	n := g.NumVertices()
	writeInt(int64(n))
	writeInt(int64(g.NumEdges()))
	for v := 0; v < n; v++ {
		writeFloat(g.VertexWeight(v))
		nbrs := g.Neighbors(v)
		wts := g.Weights(v)
		for i, u := range nbrs {
			if int(u) < v {
				continue // count each undirected edge once, from its low endpoint
			}
			writeInt(int64(u))
			writeFloat(wts[i])
		}
	}
	if g.HasLoops() {
		// Appended only when loops exist, so loop-free digests are
		// byte-for-byte the historical ones.
		writeInt(-1) // section marker, unreachable as a neighbor id
		for v := 0; v < n; v++ {
			writeFloat(g.VertexLoop(v))
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Digest is ContentHash rendered as lowercase hex — the string form used as
// a stored graph's id and in cache and exchange keys.
func Digest(g *Graph) string {
	h := ContentHash(g)
	return hex.EncodeToString(h[:])
}

// pad8 rounds up to the next multiple of 8.
func pad8(x int) int { return (x + 7) &^ 7 }

// binaryLen returns the exact encoded size for n vertices, m edges.
func binaryLen(n, m int, loops bool) int {
	size := binaryHeaderLen
	size += pad8(4 * (n + 1)) // xadj
	size += pad8(4 * 2 * m)   // adjncy
	size += 8 * 2 * m         // adjwgt
	size += 8 * n             // vwgt
	if loops {
		size += 8 * n // lwgt
	}
	return size
}

// EncodedBinaryLen returns the byte length EncodeBinary produces for g.
func EncodedBinaryLen(g *Graph) int {
	return binaryLen(g.NumVertices(), g.NumEdges(), g.HasLoops())
}

// EncodeBinary serializes g in the binary CSR format, header digest
// included. The encoding is canonical: equal graphs produce equal bytes.
func EncodeBinary(g *Graph) []byte {
	n, m := g.NumVertices(), g.NumEdges()
	buf := make([]byte, 0, EncodedBinaryLen(g))
	buf = append(buf, binaryMagic[:]...)
	buf = append(buf, BinaryVersion)
	flags := byte(0)
	if g.HasLoops() {
		flags |= binaryFlagLoops
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint16(buf, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	digest := ContentHash(g)
	buf = append(buf, digest[:]...)
	appendInt32s := func(xs []int32) {
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
		for len(buf)%8 != 0 {
			buf = append(buf, 0)
		}
	}
	appendFloats := func(xs []float64) {
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	appendInt32s(g.xadj)
	appendInt32s(g.adjncy)
	appendFloats(g.adjwgt)
	appendFloats(g.vwgt)
	if g.HasLoops() {
		appendFloats(g.lwgt)
	}
	return buf
}

// WriteBinary writes g's binary CSR encoding to w.
func WriteBinary(w io.Writer, g *Graph) error {
	_, err := w.Write(EncodeBinary(g))
	return err
}

// BinaryInfo is the decoded header of a binary graph file: enough to index
// a store without materializing the graph.
type BinaryInfo struct {
	// N and M are the vertex and undirected-edge counts.
	N, M int
	// HasLoops reports whether the file carries a self-loop section.
	HasLoops bool
	// Digest is the header's content digest in lowercase hex — the graph's
	// content address. PeekBinary reads it from the header without
	// verification; DecodeBinary and OpenBinary verify it.
	Digest string
	// EncodedLen is the exact file length the header implies.
	EncodedLen int
}

// PeekBinary decodes and sanity-checks only the fixed header. It validates
// magic, version, reserved bytes, counts against implementation limits and
// the implied length against len(data) when the full buffer is supplied —
// but not the digest; callers that need integrity must DecodeBinary. data
// may be just the first binaryHeaderLen bytes of a file.
func PeekBinary(data []byte) (BinaryInfo, error) {
	var info BinaryInfo
	if len(data) < binaryHeaderLen {
		return info, fmt.Errorf("graph: binary header truncated: %d bytes, want %d", len(data), binaryHeaderLen)
	}
	if data[0] != binaryMagic[0] || data[1] != binaryMagic[1] || data[2] != binaryMagic[2] || data[3] != binaryMagic[3] {
		return info, fmt.Errorf("graph: bad binary magic %q", data[:4])
	}
	if v := data[4]; v != BinaryVersion {
		return info, fmt.Errorf("graph: unsupported binary version %d (this build speaks %d)", v, BinaryVersion)
	}
	flags := data[5]
	if flags&^byte(binaryFlagLoops) != 0 {
		return info, fmt.Errorf("graph: unknown binary flags %#x", flags)
	}
	if binary.LittleEndian.Uint16(data[6:]) != 0 {
		return info, fmt.Errorf("graph: nonzero reserved header bytes")
	}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	m := int(binary.LittleEndian.Uint32(data[12:]))
	if n > maxBinaryVertices || m > maxBinaryVertices/2 {
		return info, fmt.Errorf("graph: binary header counts %d %d exceed implementation limits", n, m)
	}
	info.N, info.M = n, m
	info.HasLoops = flags&binaryFlagLoops != 0
	info.Digest = hex.EncodeToString(data[16 : 16+sha256.Size])
	info.EncodedLen = binaryLen(n, m, info.HasLoops)
	return info, nil
}

// DecodeBinary parses, validates and materializes a binary-encoded graph.
// The returned graph owns its memory; data may be reused. Every structural
// property is checked before use and the content digest is recomputed and
// compared against the header, so a corrupted or tampered file is refused
// rather than admitted.
func DecodeBinary(data []byte) (*Graph, error) {
	return decodeBinary(data, false)
}

// OpenBinary reads and validates the binary graph at path. The big arrays
// (adjacency offsets and lists, edge and vertex weights) alias the read
// buffer directly instead of being copied — the zero-parse admission path a
// stored graph takes into a solve. The returned graph is immutable like any
// other; the buffer stays reachable for the graph's lifetime.
func OpenBinary(path string) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeBinary(data, true)
}

// aliasInt32 reinterprets a 4-aligned byte slice as []int32 without copying;
// falls back to a copy when the platform or alignment forbids aliasing.
func aliasInt32(b []byte, count int) []int32 {
	if count == 0 {
		return nil
	}
	if littleEndianHost && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// aliasFloat64 reinterprets an 8-aligned byte slice as []float64 without
// copying; falls back to a copy when alignment or endianness forbids it.
func aliasFloat64(b []byte, count int) []float64 {
	if count == 0 {
		return nil
	}
	if littleEndianHost && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), count)
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// littleEndianHost reports whether the host lays integers out little-endian
// (true on every platform this repository targets; the copying fallback
// keeps big-endian hosts correct anyway).
var littleEndianHost = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func copyInt32s(b []byte, count int) []int32 {
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func copyFloat64s(b []byte, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func decodeBinary(data []byte, alias bool) (*Graph, error) {
	info, err := PeekBinary(data)
	if err != nil {
		return nil, err
	}
	if len(data) != info.EncodedLen {
		return nil, fmt.Errorf("graph: binary length %d, header implies %d", len(data), info.EncodedLen)
	}
	n, m := info.N, info.M

	// Section extraction. Padding bytes must be zero so the encoding stays
	// canonical (one graph, one byte string, one digest).
	off := binaryHeaderLen
	section := func(raw, padded int) ([]byte, error) {
		b := data[off : off+raw]
		for _, p := range data[off+raw : off+padded] {
			if p != 0 {
				return nil, fmt.Errorf("graph: nonzero padding byte in binary encoding")
			}
		}
		off += padded
		return b, nil
	}
	xadjB, err := section(4*(n+1), pad8(4*(n+1)))
	if err != nil {
		return nil, err
	}
	adjncyB, err := section(4*2*m, pad8(4*2*m))
	if err != nil {
		return nil, err
	}
	adjwgtB, _ := section(8*2*m, 8*2*m)
	vwgtB, _ := section(8*n, 8*n)
	var lwgtB []byte
	if info.HasLoops {
		lwgtB, _ = section(8*n, 8*n)
	}

	var xadj, adjncy []int32
	var adjwgt, vwgt, lwgt []float64
	if alias {
		xadj = aliasInt32(xadjB, n+1)
		adjncy = aliasInt32(adjncyB, 2*m)
		adjwgt = aliasFloat64(adjwgtB, 2*m)
		vwgt = aliasFloat64(vwgtB, n)
		if info.HasLoops {
			lwgt = aliasFloat64(lwgtB, n)
		}
	} else {
		xadj = copyInt32s(xadjB, n+1)
		adjncy = copyInt32s(adjncyB, 2*m)
		adjwgt = copyFloat64s(adjwgtB, 2*m)
		vwgt = copyFloat64s(vwgtB, n)
		if info.HasLoops {
			lwgt = copyFloat64s(lwgtB, n)
		}
	}

	// Structural validation: monotone offsets covering exactly 2m arcs.
	if len(xadj) == 0 || xadj[0] != 0 {
		return nil, fmt.Errorf("graph: binary xadj does not start at 0")
	}
	for v := 0; v < n; v++ {
		if xadj[v+1] < xadj[v] {
			return nil, fmt.Errorf("graph: binary xadj decreases at vertex %d", v)
		}
	}
	if int(xadj[n]) != 2*m {
		return nil, fmt.Errorf("graph: binary xadj covers %d arcs, header implies %d", xadj[n], 2*m)
	}
	for v := 0; v < n; v++ {
		if w := vwgt[v]; !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("graph: binary vertex %d weight %g not positive and finite", v, w)
		}
	}
	if info.HasLoops {
		any := false
		for v := 0; v < n; v++ {
			w := lwgt[v]
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("graph: binary vertex %d self-loop weight %g invalid", v, w)
			}
			if w > 0 {
				any = true
			}
		}
		if !any {
			return nil, fmt.Errorf("graph: binary loop section present but all-zero")
		}
	}

	g := &Graph{
		xadj:   xadj,
		adjncy: adjncy,
		adjwgt: adjwgt,
		vwgt:   vwgt,
		lwgt:   lwgt,
	}
	if err := g.rebuildDerived(); err != nil {
		return nil, fmt.Errorf("graph: binary %w", err)
	}
	if got := ContentHash(g); hex.EncodeToString(got[:]) != info.Digest {
		return nil, fmt.Errorf("graph: binary content digest mismatch (header %s, content %s)",
			info.Digest[:12], hex.EncodeToString(got[:])[:12])
	}
	return g, nil
}

// rebuildDerived reconstructs everything Builder.Build derives from the
// canonical CSR arrays — edge ids and endpoints, per-edge weights, weighted
// degrees, totals, unit-weight flags — in one O(n+m) pass, validating the
// canonical invariants as it goes. It finishes every graph assembled
// without a Builder: DecodeBinary, Induced, Relabel and Contract. The
// adjacency of every vertex must be in Build's order: neighbors smaller
// than the vertex ascending, then neighbors larger than the vertex
// ascending, with edge ids assigned in (u,v)-lex order; symmetric arcs must
// exist and carry bit-identical weights. Errors carry no prefix; each
// caller adds its own.
func (g *Graph) rebuildDerived() error {
	n := g.NumVertices()
	m := len(g.adjncy) / 2
	g.arcEID = make([]int32, 2*m)
	g.eu = make([]int32, m)
	g.ev = make([]int32, m)
	g.ewgt = make([]float64, m)
	g.wdeg = make([]float64, n)
	// cursor[v] walks v's smaller-neighbor prefix as the reverse arcs of
	// edges (u, v), u < v, are discovered in ascending-u order.
	cursor := make([]int32, n)
	eid := int32(0)
	g.totW, g.totVW, g.totLW = 0, 0, 0
	g.unitEW, g.unitVW = true, true
	for u := 0; u < n; u++ {
		lo, hi := g.xadj[u], g.xadj[u+1]
		seenLarger := false
		prev := int32(-1)
		d := 0.0
		for a := lo; a < hi; a++ {
			v := g.adjncy[a]
			w := g.adjwgt[a]
			if v < 0 || int(v) >= n {
				return fmt.Errorf("neighbor %d of vertex %d out of range [0,%d)", v, u, n)
			}
			if v == int32(u) {
				return fmt.Errorf("self-arc at vertex %d", u)
			}
			if !(w > 0) || math.IsInf(w, 1) {
				return fmt.Errorf("edge {%d,%d} weight %g not positive and finite", u, v, w)
			}
			d += w
			if v > int32(u) {
				// First arc of edge (u, v): assign the next edge id. The
				// suffix must ascend for ids to come out in (u,v)-lex order.
				if seenLarger && v <= prev {
					return fmt.Errorf("adjacency of vertex %d not in canonical order", u)
				}
				seenLarger = true
				prev = v
				if int(eid) >= m {
					return fmt.Errorf("adjacency implies more than %d edges", m)
				}
				g.eu[eid], g.ev[eid] = int32(u), v
				g.ewgt[eid] = w
				g.arcEID[a] = eid
				// The reverse arc must sit at v's cursor: v's prefix lists
				// its smaller neighbors in ascending order, and edges (·,v)
				// arrive here in ascending u.
				ra := g.xadj[v] + cursor[v]
				if ra >= g.xadj[v+1] || g.adjncy[ra] != int32(u) {
					return fmt.Errorf("edge {%d,%d} has no symmetric arc", u, v)
				}
				if g.adjwgt[ra] != w {
					return fmt.Errorf("edge {%d,%d} listed with weights %g and %g", u, v, g.adjwgt[ra], w)
				}
				g.arcEID[ra] = eid
				cursor[v]++
				eid++
				g.totW += w
			} else if seenLarger {
				return fmt.Errorf("adjacency of vertex %d not in canonical order", u)
			}
		}
		// Every smaller neighbor must have been consumed by the time u's own
		// row is done being everyone's reverse target... checked globally
		// below via eid == m; a stray prefix arc surfaces as a missing
		// symmetric arc or an id shortfall.
		g.wdeg[u] = d
		if g.vwgt[u] != 1 {
			g.unitVW = false
		}
		g.totVW += g.vwgt[u]
	}
	if int(eid) != m {
		return fmt.Errorf("adjacency implies %d edges, arc count implies %d", eid, m)
	}
	for u := 0; u < n; u++ {
		if int(g.xadj[u]+cursor[u]) != firstLargerArc(g, u) {
			return fmt.Errorf("adjacency of vertex %d not in canonical order", u)
		}
	}
	for _, w := range g.ewgt {
		if w != 1 {
			g.unitEW = false
			break
		}
	}
	for _, w := range g.lwgt {
		g.totLW += w
	}
	return nil
}

// firstLargerArc returns the index of u's first arc pointing to a neighbor
// larger than u (== the end of the smaller-neighbor prefix).
func firstLargerArc(g *Graph, u int) int {
	lo, hi := g.xadj[u], g.xadj[u+1]
	for a := lo; a < hi; a++ {
		if g.adjncy[a] > int32(u) {
			return int(a)
		}
	}
	return int(hi)
}
