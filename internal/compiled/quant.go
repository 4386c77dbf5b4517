package compiled

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"repro/internal/store"
)

// Quantised flat (CPS4) encoding — the footprint-optimised sibling of CPS3.
//
// The paper's Table VII argues the merged single-PST stays small enough to
// deploy; CPS4 makes the serving blob itself small. It keeps CPS3's
// contract — fixed-width little-endian arrays at 8-byte-aligned offsets, so
// the blob is mmap-able and zero-copy on little-endian platforms — but
// stores follower probabilities as fixed-point uint16 against a per-node
// step instead of float64, and narrows every per-node array to the width
// the data actually needs:
//
//   - smoothed probabilities: p ≈ qstep[v]·q with q = round(p/qstep[v]),
//     qstep[v] = maxP(v)/65535 stored as float32. The dequantisation
//     p̂ = float64(qstep)·float64(q) is exact IEEE arithmetic, so encode →
//     decode → re-encode is byte-stable and every platform reads identical
//     probabilities. The absolute error per node is bounded by qstep[v]/2
//     (≤ 1/131070 ≈ 7.7e-6), and since mixture weights and escape chains
//     multiply to ≤ 1, a candidate's final score is within that same bound
//     of the float64 CPS3 score. Quantisation is monotone per node, so
//     follower order within a node is preserved; only cross-candidate
//     near-ties (scores within the bound) may swap rank — the parity test
//     in quant_test.go enforces exactly that.
//   - the ranked (TopN candidate-pool) view: uint16 indices into the node's
//     ID-sorted follower range instead of repeating the uint32 IDs.
//   - unobserved-follower floors: float32 (relative error 2^-24, far below
//     the quantisation bound).
//   - component presence bitmasks: uint16 when the mixture has <= 16
//     components (the paper's has 11), uint64 otherwise.
//   - escape-window occurrence counts: uint32 when every count fits (any
//     realistic log), uint64 otherwise.
//
// Raw follower counts and float64 probabilities are not stored: a model
// loaded from CPS4 serves with bounded error and cannot be re-encoded to
// the exact CPS1/CPS3 layouts (core.SaveAs recompiles from the interpreted
// mixture when asked for those). On the benchmark serving model the CPS4
// blob is ~46% smaller than CPS3 (gated in BENCH_serving.json).
//
// Layout (all integers little-endian):
//
//	  0  "CPS4" magic
//	  4  uint32 layout version (1)
//	  8  uint64 blob length (including this header)
//	 16  uint32 k, uint32 vocab
//	 24  uint32 depth, uint32 node count n (root included)
//	 32  uint64 edge count, uint64 follower count
//	 48  uint32 CRC-32 (IEEE) of blob[64:]
//	 52  uint8 evidence element width (2 or 8)
//	 53  uint8 occurrence element width (4 or 8)
//	 54  10 reserved zero bytes
//	 64  array table: 13 x { uint64 byte offset, uint64 element count }
//	272  the arrays, each 8-byte aligned
//
// As with CPS3, ViewCopy loads verify the CRC; ViewAuto zero-copy loads
// skip it (checksumming would fault in every page) and rely on structural
// validation plus defensive clamping in the descent and candidate pooling —
// a corrupted payload can misrank but cannot panic or index out of bounds.
const (
	quantMagic       = "CPS4"
	quantVersion     = 1
	quantArrayCount  = 13
	quantArraysStart = flatHeaderSize + quantArrayCount*16 // 272, 8-byte aligned
)

// Array-table indices of the CPS4 layout, in on-disk order.
const (
	qaSigma = iota
	qaMaxLen
	qaChildStart
	qaChildKey
	qaEvidence
	qaOcc
	qaStartOcc
	qaFloor
	qaStep
	qaFolStart
	qaFolID
	qaFolQ
	qaFolRank
)

// quantSteps is the fixed-point resolution: probabilities are stored on the
// grid {0, qstep, 2·qstep, ..., 65535·qstep} with qstep = maxP/quantSteps.
const quantSteps = 65535

// ErrUnquantisable reports a model whose statistics do not fit the CPS4
// narrow layout (a node with more than 65535 followers, or a probability
// too small for a float32 step). Callers keep the exact CPS3 encoding.
var ErrUnquantisable = errors.New("compiled: model does not fit the CPS4 quantised layout")

func quantCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: CPS4 %s", store.ErrCorrupt, fmt.Sprintf(format, args...))
}

// quantWidths picks the narrow-array element widths for this model's data:
// evidence masks shrink to uint16 when the mixture fits, occurrence counts
// to uint32 when every count fits. The choice is a pure function of the
// model's statistics, which keeps re-encoding byte-stable.
func (c *Model) quantWidths() (evW, occW int) {
	evW = 8
	if c.k <= 16 {
		evW = 2
	}
	occW = 4
	for v := int32(0); v < int32(c.nodes); v++ {
		if c.occAt(v) > math.MaxUint32 || c.startOccAt(v) > math.MaxUint32 {
			occW = 8
			break
		}
	}
	return evW, occW
}

// quantCounts returns the element count and on-disk element width of every
// CPS4 array.
func (c *Model) quantCounts() (counts, sizes [quantArrayCount]int) {
	n := c.nodes
	f := len(c.folIDSorted)
	evW, occW := c.quantWidths()
	counts = [quantArrayCount]int{
		c.k, c.k, n + 1, len(c.childKey),
		n, n, n, n, n,
		n + 1, f, f, f,
	}
	sizes = [quantArrayCount]int{8, 8, 4, 4, evW, occW, occW, 4, 4, 4, 4, 2, 2}
	return counts, sizes
}

// quantLayout assigns each array its 8-byte-aligned offset and returns the
// total blob size.
func quantLayout(counts, sizes [quantArrayCount]int) (offs [quantArrayCount]uint64, total uint64) {
	off := uint64(quantArraysStart)
	for i := range counts {
		off = (off + 7) &^ 7
		offs[i] = off
		off += uint64(counts[i]) * uint64(sizes[i])
	}
	return offs, (off + 7) &^ 7
}

// Flat4Size returns the exact byte length of the model's CPS4 encoding.
func (c *Model) Flat4Size() int64 {
	counts, sizes := c.quantCounts()
	_, total := quantLayout(counts, sizes)
	return int64(total)
}

// AppendFlat4 appends the model's CPS4 quantised encoding to dst and
// returns the extended slice. Exact models are quantised on the fly;
// already-quantised models re-emit their stored fixed-point values, so
// load → save round trips are byte-identical. Fails with ErrUnquantisable
// when the model's statistics do not fit the narrow layout (callers then
// keep CPS3).
func (c *Model) AppendFlat4(dst []byte) ([]byte, error) {
	if c.folIDVar != nil {
		// CPS5-loaded models carry varint-packed follower IDs (and possibly
		// the uint8 probability tier) instead of the fixed-width arrays the
		// CPS4 writer reads; re-encode with AppendFlat5.
		return dst, fmt.Errorf("%w: CPS5-loaded model (re-encode with AppendFlat5)", ErrUnquantisable)
	}
	counts, sizes := c.quantCounts()
	offs, total := quantLayout(counts, sizes)
	evW, occW := sizes[qaEvidence], sizes[qaOcc]
	base := len(dst)
	dst = append(dst, make([]byte, total)...)
	b := dst[base:]
	le := binary.LittleEndian

	copy(b, quantMagic)
	le.PutUint32(b[4:], quantVersion)
	le.PutUint64(b[8:], total)
	le.PutUint32(b[16:], uint32(c.k))
	le.PutUint32(b[20:], uint32(c.vocab))
	le.PutUint32(b[24:], uint32(c.depth))
	le.PutUint32(b[28:], uint32(c.nodes))
	le.PutUint64(b[32:], uint64(len(c.childKey)))
	le.PutUint64(b[40:], uint64(len(c.folIDSorted)))
	b[52] = byte(evW)
	b[53] = byte(occW)
	for i := range offs {
		le.PutUint64(b[flatHeaderSize+16*i:], offs[i])
		le.PutUint64(b[flatHeaderSize+16*i+8:], uint64(counts[i]))
	}

	for i, v := range c.sigma {
		le.PutUint64(b[offs[qaSigma]+8*uint64(i):], math.Float64bits(v))
	}
	for i, v := range c.maxLen {
		le.PutUint64(b[offs[qaMaxLen]+8*uint64(i):], uint64(v))
	}
	for i, v := range c.childStart {
		le.PutUint32(b[offs[qaChildStart]+4*uint64(i):], uint32(v))
	}
	for i, v := range c.childKey {
		le.PutUint32(b[offs[qaChildKey]+4*uint64(i):], v)
	}
	for v := 0; v < c.nodes; v++ {
		ev := c.evidenceAt(int32(v))
		if evW == 2 {
			le.PutUint16(b[offs[qaEvidence]+2*uint64(v):], uint16(ev))
		} else {
			le.PutUint64(b[offs[qaEvidence]+8*uint64(v):], ev)
		}
		occ, start := c.occAt(int32(v)), c.startOccAt(int32(v))
		if occW == 4 {
			le.PutUint32(b[offs[qaOcc]+4*uint64(v):], uint32(occ))
			le.PutUint32(b[offs[qaStartOcc]+4*uint64(v):], uint32(start))
		} else {
			le.PutUint64(b[offs[qaOcc]+8*uint64(v):], occ)
			le.PutUint64(b[offs[qaStartOcc]+8*uint64(v):], start)
		}
		le.PutUint32(b[offs[qaFloor]+4*uint64(v):], math.Float32bits(float32(c.floorAt(int32(v)))))
	}
	for i, v := range c.folStart {
		le.PutUint32(b[offs[qaFolStart]+4*uint64(i):], uint32(v))
	}
	for i, v := range c.folIDSorted {
		le.PutUint32(b[offs[qaFolID]+4*uint64(i):], v)
	}
	if err := c.putQuantised(b, offs); err != nil {
		return dst[:base], err
	}

	le.PutUint32(b[48:], crc32.ChecksumIEEE(b[flatHeaderSize:]))
	return dst, nil
}

// putQuantised fills the qstep, folQ and folRank arrays: copied verbatim
// from an already-quantised model, computed from the float64 probabilities
// and the frozen ranked order otherwise.
func (c *Model) putQuantised(b []byte, offs [quantArrayCount]uint64) error {
	le := binary.LittleEndian
	if c.quantised {
		for v := 0; v < c.nodes; v++ {
			le.PutUint32(b[offs[qaStep]+4*uint64(v):], math.Float32bits(c.qstep[v]))
		}
		for i, q := range c.folQSorted {
			le.PutUint16(b[offs[qaFolQ]+2*uint64(i):], q)
		}
		for i, r := range c.folRankIdx {
			le.PutUint16(b[offs[qaFolRank]+2*uint64(i):], r)
		}
		return nil
	}
	for v := 0; v < c.nodes; v++ {
		lo, hi := c.folStart[v], c.folStart[v+1]
		support := int(hi - lo)
		if support == 0 {
			continue // step stays 0.0
		}
		if support > quantSteps {
			return fmt.Errorf("%w: node %d has %d followers, rank indices are 16-bit", ErrUnquantisable, v, support)
		}
		maxP := 0.0
		for _, p := range c.folPSorted[lo:hi] {
			if p > maxP {
				maxP = p
			}
		}
		step := float32(maxP / quantSteps)
		if step == 0 && maxP > 0 {
			return fmt.Errorf("%w: node %d max probability %g underflows the float32 step", ErrUnquantisable, v, maxP)
		}
		le.PutUint32(b[offs[qaStep]+4*uint64(v):], math.Float32bits(step))
		for j := lo; j < hi; j++ {
			q := math.Round(c.folPSorted[j] / float64(step))
			if q > quantSteps {
				q = quantSteps
			}
			le.PutUint16(b[offs[qaFolQ]+2*uint64(j):], uint16(q))
		}
		// Ranked view as local indices: folIDRanked[lo+r] is the r-th best
		// follower; find it in the node's ID-sorted range.
		ids := c.folIDSorted[lo:hi]
		for r := int32(0); r < int32(support); r++ {
			id := c.folIDRanked[lo+r]
			idx := sort.Search(support, func(i int) bool { return ids[i] >= id })
			le.PutUint16(b[offs[qaFolRank]+2*uint64(lo+r):], uint16(idx))
		}
	}
	return nil
}

// WriteFlat4 writes the CPS4 encoding to w.
func (c *Model) WriteFlat4(w io.Writer) (int64, error) {
	blob, err := c.AppendFlat4(nil)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(blob)
	return int64(n), err
}

// fromBytes4 materialises a quantised Model from a CPS4 blob. The caller
// (fromBytes) has already matched the magic.
func fromBytes4(data []byte, mode ViewMode) (*Model, bool, error) {
	if len(data) < quantArraysStart {
		return nil, false, quantCorrupt("blob of %d bytes is shorter than the header", len(data))
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[4:]); v != quantVersion {
		return nil, false, quantCorrupt("unsupported layout version %d", v)
	}
	if bl := le.Uint64(data[8:]); bl != uint64(len(data)) {
		return nil, false, quantCorrupt("header claims %d bytes, blob has %d (truncated?)", bl, len(data))
	}
	c := &Model{
		k:         int(le.Uint32(data[16:])),
		vocab:     int(le.Uint32(data[20:])),
		depth:     int(le.Uint32(data[24:])),
		quantised: true,
	}
	n := int(le.Uint32(data[28:]))
	edges := le.Uint64(data[32:])
	fols := le.Uint64(data[40:])
	evW, occW := int(data[52]), int(data[53])
	if c.k <= 0 || c.k > maxComponents {
		return nil, false, quantCorrupt("implausible component count %d", c.k)
	}
	if c.vocab <= 0 {
		return nil, false, quantCorrupt("implausible vocab %d", c.vocab)
	}
	if n <= 0 || uint64(n-1) != edges {
		return nil, false, quantCorrupt("%d edges for %d nodes", edges, n)
	}
	if fols > uint64(len(data)) { // each follower entry occupies >= 2 bytes
		return nil, false, quantCorrupt("implausible follower count %d", fols)
	}
	if (evW != 2 && evW != 8) || (evW == 2 && c.k > 16) {
		return nil, false, quantCorrupt("evidence width %d for %d components", evW, c.k)
	}
	if occW != 4 && occW != 8 {
		return nil, false, quantCorrupt("occurrence width %d", occW)
	}
	c.nodes = n

	want := [quantArrayCount]uint64{
		uint64(c.k), uint64(c.k), uint64(n + 1), edges,
		uint64(n), uint64(n), uint64(n), uint64(n), uint64(n),
		uint64(n + 1), fols, fols, fols,
	}
	sizes := [quantArrayCount]int{8, 8, 4, 4, evW, occW, occW, 4, 4, 4, 4, 2, 2}
	var arr [quantArrayCount][]byte
	for i := 0; i < quantArrayCount; i++ {
		off := le.Uint64(data[flatHeaderSize+16*i:])
		cnt := le.Uint64(data[flatHeaderSize+16*i+8:])
		if cnt != want[i] {
			return nil, false, quantCorrupt("array %d holds %d elements, header implies %d", i, cnt, want[i])
		}
		bytes := cnt * uint64(sizes[i])
		if off%8 != 0 || off < quantArraysStart || off > uint64(len(data)) || bytes > uint64(len(data))-off {
			return nil, false, quantCorrupt("array %d at [%d, %d+%d) escapes the %d-byte blob", i, off, off, bytes, len(data))
		}
		arr[i] = data[off : off+bytes]
	}

	viewed := mode == ViewAuto && canZeroCopy(data)
	if !viewed {
		if got, wantCRC := crc32.ChecksumIEEE(data[flatHeaderSize:]), le.Uint32(data[48:]); got != wantCRC {
			return nil, false, quantCorrupt("CRC mismatch %08x != %08x", got, wantCRC)
		}
	}

	c.sigma = decodeF64(arr[qaSigma])
	c.maxLen = make([]int, c.k)
	for i := range c.maxLen {
		v := le.Uint64(arr[qaMaxLen][8*i:])
		if v > math.MaxInt32 {
			return nil, false, quantCorrupt("component %d window bound %d overflows", i, v)
		}
		c.maxLen[i] = int(v)
	}
	for i, s := range c.sigma {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, false, quantCorrupt("component %d sigma is not finite", i)
		}
	}

	if viewed {
		c.childStart = viewI32(arr[qaChildStart])
		c.childKey = viewU32(arr[qaChildKey])
		c.floor32 = viewF32(arr[qaFloor])
		c.qstep = viewF32(arr[qaStep])
		c.folStart = viewI32(arr[qaFolStart])
		c.folIDSorted = viewU32(arr[qaFolID])
		c.folQSorted = viewU16(arr[qaFolQ])
		c.folRankIdx = viewU16(arr[qaFolRank])
		if evW == 2 {
			c.evidence16 = viewU16(arr[qaEvidence])
		} else {
			c.evidence = viewU64(arr[qaEvidence])
		}
		if occW == 4 {
			c.occ32 = viewU32(arr[qaOcc])
			c.startOcc32 = viewU32(arr[qaStartOcc])
		} else {
			c.occ = viewU64(arr[qaOcc])
			c.startOcc = viewU64(arr[qaStartOcc])
		}
	} else {
		c.childStart = decodeI32(arr[qaChildStart])
		c.childKey = decodeU32(arr[qaChildKey])
		c.floor32 = decodeF32(arr[qaFloor])
		c.qstep = decodeF32(arr[qaStep])
		c.folStart = decodeI32(arr[qaFolStart])
		c.folIDSorted = decodeU32(arr[qaFolID])
		c.folQSorted = decodeU16(arr[qaFolQ])
		c.folRankIdx = decodeU16(arr[qaFolRank])
		if evW == 2 {
			c.evidence16 = decodeU16(arr[qaEvidence])
		} else {
			c.evidence = decodeU64(arr[qaEvidence])
		}
		if occW == 4 {
			c.occ32 = decodeU32(arr[qaOcc])
			c.startOcc32 = decodeU32(arr[qaStartOcc])
		} else {
			c.occ = decodeU64(arr[qaOcc])
			c.startOcc = decodeU64(arr[qaStartOcc])
		}
	}

	// Structural invariants the descent indexes through; with these checked
	// (and rank indices clamped at use), arbitrary payload corruption can
	// misrank but cannot index out of range.
	if err := c.validateStructure(edges, fols); err != nil {
		return nil, false, err
	}
	c.initServing()
	return c, viewed, nil
}
