package compiled

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/store"
)

// Compact flat (CPS5) encoding — the default serving blob: quantised
// probabilities, width-narrowed node arrays and delta/varint-packed edges.
//
// The paper's Table VII argues the merged single-PST stays small enough to
// deploy; CPS5 makes the serving blob itself small, in three steps over the
// exact CPS3 layout:
//
//   - smoothed probabilities become fixed-point uint16 against a per-node
//     step: p ≈ qstep[v]·q with q = round(p/qstep[v]) and qstep[v] =
//     maxP(v)/65535 stored as float32. The dequantisation p̂ =
//     float64(qstep)·float64(q) is exact IEEE arithmetic, so encode → decode
//     → re-encode is byte-stable and every platform reads identical
//     probabilities. The absolute error per node is bounded by qstep[v]/2
//     (≤ 1/131070 ≈ 7.7e-6), and since mixture weights and escape chains
//     multiply to ≤ 1, a candidate's final score is within that same bound of
//     the float64 CPS3 score. Quantisation is monotone per node, so follower
//     order within a node is preserved; only cross-candidate near-ties (scores
//     within the bound) may swap rank — assertQuantParity in flat5_test.go
//     enforces exactly that. Raw follower counts are not stored, so a model
//     loaded from CPS5 cannot be re-encoded as CPS3;
//   - per-node arrays shrink to the width the data needs: the ranked (TopN
//     candidate-pool) view as uint16 indices into the node's ID-sorted
//     follower range, unobserved-follower floors as float32, component
//     presence bitmasks as uint16 when the mixture has <= 16 components (the
//     paper's has 11), escape-window occurrence counts as uint32 when every
//     count fits;
//   - the two uint32 arrays that would still dominate the blob go varint.
//     Follower IDs within a node are ascending, and query IDs are assigned by
//     training-log frequency, so the gaps are small: each node's follower
//     list is a varint first ID followed by varint deltas. The
//     childStart/folStart CSR offset arrays become varint count streams, and
//     the child edge keys (symbol-sorted per node) first-key + deltas.
//
// Varint data cannot be viewed zero-copy, so CPS5 splits the load:
//
//   - the varint regions (child offsets, child keys, follower offsets, the
//     follower IDs) are decoded once, at load, into heap slices — descent
//     needs random access, and these streams are the small part of the
//     blob; the per-node byte extents of the follower-ID groups are read
//     only to decode them;
//   - the fixed-width payload arrays (steps, fixed-point probabilities,
//     ranked views, evidence, occurrences, floors) are viewed zero-copy like
//     CPS3's.
//
// Layout (all integers little-endian, varints in Go's binary.Uvarint form):
//
//	  0  "CPS5" magic
//	  4  uint32 layout version (1)
//	  8  uint64 blob length (including this header)
//	 16  uint32 k, uint32 vocab
//	 24  uint32 depth, uint32 node count n (root included)
//	 32  uint64 edge count, uint64 follower count
//	 48  uint32 CRC-32 (IEEE) of blob[64:]
//	 52  uint8 evidence element width (2 or 8)
//	 53  uint8 occurrence element width (4 or 8)
//	 54  uint8 probability element width (always 2; anything else is corrupt)
//	 55  9 reserved zero bytes
//	 64  array table: 14 x { uint64 byte offset, uint64 count }
//	288  the arrays, each 8-byte aligned
//
// For fixed-width arrays the table count is the element count; for the five
// varint regions it is the region's byte length. As with CPS3, ViewCopy
// loads verify the CRC; zero-copy loads skip it and rely on structural
// validation plus defensive clamping — a corrupted payload (including a
// truncated follower-ID stream, which the load-time decoder pads) can
// misrank but cannot panic or index out of bounds.
const (
	compactMagic       = "CPS5"
	compactVersion     = 1
	compactArrayCount  = 14
	compactArraysStart = flatHeaderSize + compactArrayCount*16 // 288, 8-byte aligned
	compactProbWidth   = 2
)

// Array-table indices of the CPS5 layout, in on-disk order. The *V entries
// are varint regions (table count = byte length).
const (
	f5Sigma = iota
	f5MaxLen
	f5Evidence
	f5Occ
	f5StartOcc
	f5Floor
	f5Step
	f5FolQ
	f5FolRank
	f5ChildCntV
	f5ChildKeyV
	f5FolCntV
	f5FolLenV
	f5FolIDV
)

// quantSteps is the fixed-point resolution: probabilities are stored on the
// grid {0, qstep, 2·qstep, ..., 65535·qstep} with qstep = maxP/quantSteps.
const quantSteps = 65535

// ErrUnquantisable reports a model whose statistics do not fit the CPS5
// narrow layout (a node with more than 65535 followers, or a probability
// too small for a float32 step). Callers keep the exact CPS3 encoding.
var ErrUnquantisable = errors.New("compiled: model does not fit the CPS5 quantised layout")

func compactCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: CPS5 %s", store.ErrCorrupt, fmt.Sprintf(format, args...))
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

// compactRegions builds the five varint regions of the CPS5 layout, the
// follower IDs delta-encoded from the ID-sorted follower array.
func (c *Model) compactRegions() (childCnt, childKey, folCnt, folLen, folID []byte) {
	n := c.nodes
	for v := 0; v < n; v++ {
		childCnt = binary.AppendUvarint(childCnt, uint64(c.childStart[v+1]-c.childStart[v]))
		prev := uint64(0)
		for e := c.childStart[v]; e < c.childStart[v+1]; e++ {
			key := uint64(c.childKey[e])
			if e == c.childStart[v] {
				childKey = binary.AppendUvarint(childKey, key)
			} else {
				childKey = binary.AppendUvarint(childKey, key-prev)
			}
			prev = key
		}
		folCnt = binary.AppendUvarint(folCnt, uint64(c.folStart[v+1]-c.folStart[v]))
	}
	for v := 0; v < n; v++ {
		before := len(folID)
		prev := uint64(0)
		for j := c.folStart[v]; j < c.folStart[v+1]; j++ {
			id := uint64(c.folIDSorted[j])
			if j == c.folStart[v] {
				folID = binary.AppendUvarint(folID, id)
			} else {
				folID = binary.AppendUvarint(folID, id-prev)
			}
			prev = id
		}
		folLen = binary.AppendUvarint(folLen, uint64(len(folID)-before))
	}
	return
}

// compactCounts returns the table count and on-disk element width of every
// CPS5 array (varint regions report their byte length with width 1).
func (c *Model) compactCounts(regions [5][]byte) (counts, sizes [compactArrayCount]int) {
	n := c.nodes
	f := c.Followers()
	evW, occW := c.quantWidths()
	counts = [compactArrayCount]int{
		c.k, c.k,
		n, n, n, n, n,
		f, f,
		len(regions[0]), len(regions[1]), len(regions[2]), len(regions[3]), len(regions[4]),
	}
	sizes = [compactArrayCount]int{8, 8, evW, occW, occW, 4, 4, compactProbWidth, 2, 1, 1, 1, 1, 1}
	return counts, sizes
}

// compactLayout assigns each array its 8-byte-aligned offset and returns the
// total blob size.
func compactLayout(counts, sizes [compactArrayCount]int) (offs [compactArrayCount]uint64, total uint64) {
	off := uint64(compactArraysStart)
	for i := range counts {
		off = (off + 7) &^ 7
		offs[i] = off
		off += uint64(counts[i]) * uint64(sizes[i])
	}
	return offs, (off + 7) &^ 7
}

// AppendFlat5 appends the model's CPS5 compact encoding to dst and returns
// the extended slice. Exact models are quantised on the fly; models loaded
// from CPS5 re-emit their stored fixed-point values and re-pack their
// decoded IDs, so load → save round trips are byte-identical.
//
// Fails with ErrUnquantisable when the statistics do not fit: a node with
// more than 65535 followers, or a float32 step underflow. Callers then fall
// back to exact CPS3.
func (c *Model) AppendFlat5(dst []byte) ([]byte, error) {
	childCnt, childKeyV, folCnt, folLen, folID := c.compactRegions()
	regions := [5][]byte{childCnt, childKeyV, folCnt, folLen, folID}
	counts, sizes := c.compactCounts(regions)
	offs, total := compactLayout(counts, sizes)
	evW, occW := sizes[f5Evidence], sizes[f5Occ]
	base := len(dst)
	dst = append(dst, make([]byte, total)...)
	b := dst[base:]
	le := binary.LittleEndian

	copy(b, compactMagic)
	le.PutUint32(b[4:], compactVersion)
	le.PutUint64(b[8:], total)
	le.PutUint32(b[16:], uint32(c.k))
	le.PutUint32(b[20:], uint32(c.vocab))
	le.PutUint32(b[24:], uint32(c.depth))
	le.PutUint32(b[28:], uint32(c.nodes))
	le.PutUint64(b[32:], uint64(len(c.childKey)))
	le.PutUint64(b[40:], uint64(c.Followers()))
	b[52] = byte(evW)
	b[53] = byte(occW)
	b[54] = compactProbWidth
	for i := range offs {
		le.PutUint64(b[flatHeaderSize+16*i:], offs[i])
		le.PutUint64(b[flatHeaderSize+16*i+8:], uint64(counts[i]))
	}

	for i, v := range c.sigma {
		le.PutUint64(b[offs[f5Sigma]+8*uint64(i):], math.Float64bits(v))
	}
	for i, v := range c.maxLen {
		le.PutUint64(b[offs[f5MaxLen]+8*uint64(i):], uint64(v))
	}
	for v := 0; v < c.nodes; v++ {
		ev := c.evidenceAt(int32(v))
		if evW == 2 {
			le.PutUint16(b[offs[f5Evidence]+2*uint64(v):], uint16(ev))
		} else {
			le.PutUint64(b[offs[f5Evidence]+8*uint64(v):], ev)
		}
		occ, start := c.occAt(int32(v)), c.startOccAt(int32(v))
		if occW == 4 {
			le.PutUint32(b[offs[f5Occ]+4*uint64(v):], uint32(occ))
			le.PutUint32(b[offs[f5StartOcc]+4*uint64(v):], uint32(start))
		} else {
			le.PutUint64(b[offs[f5Occ]+8*uint64(v):], occ)
			le.PutUint64(b[offs[f5StartOcc]+8*uint64(v):], start)
		}
		le.PutUint32(b[offs[f5Floor]+4*uint64(v):], math.Float32bits(float32(c.floorAt(int32(v)))))
	}
	for i, r := range regions {
		copy(b[offs[f5ChildCntV+i]:], r)
	}
	if err := c.putCompactQuantised(b, offs); err != nil {
		return dst[:base], err
	}

	le.PutUint32(b[48:], crc32.ChecksumIEEE(b[flatHeaderSize:]))
	return dst, nil
}

// putCompactQuantised fills the step, folQ and folRank arrays of a CPS5
// blob: copied verbatim from a model loaded from CPS5, computed from the
// float64 probabilities and the frozen ranked order of an exact one.
func (c *Model) putCompactQuantised(b []byte, offs [compactArrayCount]uint64) error {
	le := binary.LittleEndian
	if c.Quantised() {
		for v := 0; v < c.nodes; v++ {
			le.PutUint32(b[offs[f5Step]+4*uint64(v):], math.Float32bits(c.qstep[v]))
		}
		for i, q := range c.folQSorted {
			le.PutUint16(b[offs[f5FolQ]+2*uint64(i):], q)
		}
		for i, r := range c.folRankIdx {
			le.PutUint16(b[offs[f5FolRank]+2*uint64(i):], r)
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
		le.PutUint32(b[offs[f5Step]+4*uint64(v):], math.Float32bits(step))
		for j := lo; j < hi; j++ {
			q := math.Round(c.folPSorted[j] / float64(step))
			if q > quantSteps {
				q = quantSteps
			}
			le.PutUint16(b[offs[f5FolQ]+2*uint64(j):], uint16(q))
		}
		// Ranked view as local indices: folIDRanked[lo+r] is the r-th best
		// follower; find it in the node's ID-sorted range.
		ids := c.folIDSorted[lo:hi]
		for r := int32(0); r < int32(support); r++ {
			id := c.folIDRanked[lo+r]
			idx := sort.Search(support, func(i int) bool { return ids[i] >= id })
			le.PutUint16(b[offs[f5FolRank]+2*uint64(lo+r):], uint16(idx))
		}
	}
	return nil
}

// decodeUvarints reads exactly count uvarints from b, appending them to dst.
// Fails on truncation, overlong encodings that overflow, or leftover bytes.
func decodeUvarints(dst []uint64, b []byte, count int, what string) ([]uint64, error) {
	for i := 0; i < count; i++ {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, compactCorrupt("%s stream truncated at value %d of %d", what, i, count)
		}
		b = b[n:]
		dst = append(dst, v)
	}
	if len(b) != 0 {
		return nil, compactCorrupt("%s stream carries %d trailing bytes", what, len(b))
	}
	return dst, nil
}

// fromBytes5 materialises a quantised Model from a CPS5 blob. The caller
// (fromBytes) has already matched the magic. The varint regions are decoded
// eagerly (descent needs random access), the follower IDs node by node
// within their recorded byte extents.
func fromBytes5(data []byte, mode ViewMode) (*Model, bool, error) {
	c, edges, fols, err := readFlatHeader(data, compactVersion, compactCorrupt)
	if err != nil {
		return nil, false, err
	}
	n := c.nodes
	le := binary.LittleEndian
	evW, occW, probW := int(data[52]), int(data[53]), int(data[54])
	if (evW != 2 && evW != 8) || (evW == 2 && c.k > 16) {
		return nil, false, compactCorrupt("evidence width %d for %d components", evW, c.k)
	}
	if occW != 4 && occW != 8 {
		return nil, false, compactCorrupt("occurrence width %d", occW)
	}
	if probW != compactProbWidth {
		return nil, false, compactCorrupt("probability width %d", probW)
	}

	// Fixed-width arrays have a known element count; varint regions carry
	// their byte length in the table (bounded only by the blob).
	want := [compactArrayCount]uint64{
		uint64(c.k), uint64(c.k),
		uint64(n), uint64(n), uint64(n), uint64(n), uint64(n),
		fols, fols,
		0, 0, 0, 0, 0,
	}
	sizes := [compactArrayCount]int{8, 8, evW, occW, occW, 4, 4, probW, 2, 1, 1, 1, 1, 1}
	var arr [compactArrayCount][]byte
	for i := 0; i < compactArrayCount; i++ {
		off := le.Uint64(data[flatHeaderSize+16*i:])
		cnt := le.Uint64(data[flatHeaderSize+16*i+8:])
		if i < f5ChildCntV && cnt != want[i] {
			return nil, false, compactCorrupt("array %d holds %d elements, header implies %d", i, cnt, want[i])
		}
		bytes := cnt * uint64(sizes[i])
		if off%8 != 0 || off < compactArraysStart || off > uint64(len(data)) || bytes > uint64(len(data))-off {
			return nil, false, compactCorrupt("array %d at [%d, %d+%d) escapes the %d-byte blob", i, off, off, bytes, len(data))
		}
		arr[i] = data[off : off+bytes]
	}

	viewed := mode == ViewAuto && canZeroCopy(data)
	if !viewed {
		if got, wantCRC := crc32.ChecksumIEEE(data[flatHeaderSize:]), le.Uint32(data[48:]); got != wantCRC {
			return nil, false, compactCorrupt("CRC mismatch %08x != %08x", got, wantCRC)
		}
	}

	if err := c.decodeComponents(arr[f5Sigma], arr[f5MaxLen], compactCorrupt); err != nil {
		return nil, false, err
	}

	// CSR skeleton: counts to prefix sums, delta streams to absolute keys.
	vals, err := decodeUvarints(make([]uint64, 0, n), arr[f5ChildCntV], n, "child-count")
	if err != nil {
		return nil, false, err
	}
	c.childStart = make([]int32, n+1)
	var sum uint64
	for v, cnt := range vals {
		sum += cnt
		if sum > edges {
			return nil, false, compactCorrupt("child counts overflow %d edges at node %d", edges, v)
		}
		c.childStart[v+1] = int32(sum)
	}
	if sum != edges {
		return nil, false, compactCorrupt("child counts cover %d of %d edges", sum, edges)
	}
	vals, err = decodeUvarints(vals[:0], arr[f5ChildKeyV], int(edges), "child-key")
	if err != nil {
		return nil, false, err
	}
	c.childKey = make([]uint32, edges)
	for v := 0; v < n; v++ {
		var key uint64
		for e := c.childStart[v]; e < c.childStart[v+1]; e++ {
			if e == c.childStart[v] {
				key = vals[e]
			} else {
				key += vals[e]
			}
			c.childKey[e] = uint32(key)
		}
	}
	vals, err = decodeUvarints(vals[:0], arr[f5FolCntV], n, "follower-count")
	if err != nil {
		return nil, false, err
	}
	c.folStart = make([]int32, n+1)
	sum = 0
	for v, cnt := range vals {
		sum += cnt
		if sum > fols {
			return nil, false, compactCorrupt("follower counts overflow %d entries at node %d", fols, v)
		}
		c.folStart[v+1] = int32(sum)
	}
	if sum != fols {
		return nil, false, compactCorrupt("follower counts cover %d of %d entries", sum, fols)
	}
	vals, err = decodeUvarints(vals[:0], arr[f5FolLenV], n, "follower-extent")
	if err != nil {
		return nil, false, err
	}
	ids := arr[f5FolIDV]
	c.folIDSorted = make([]uint32, 0, fols)
	for v, l := range vals {
		if l > uint64(len(ids)) {
			return nil, false, compactCorrupt("follower extents overflow the %d-byte ID region at node %d", len(arr[f5FolIDV]), v)
		}
		c.folIDSorted = appendFollowerIDs(c.folIDSorted, ids[:l], int(c.folStart[v+1]-c.folStart[v]))
		ids = ids[l:]
	}
	if len(ids) != 0 {
		return nil, false, compactCorrupt("follower extents leave %d of %d ID-region bytes", len(ids), len(arr[f5FolIDV]))
	}

	if viewed {
		c.floor32 = viewF32(arr[f5Floor])
		c.qstep = viewF32(arr[f5Step])
		c.folRankIdx = viewU16(arr[f5FolRank])
		c.folQSorted = viewU16(arr[f5FolQ])
		if evW == 2 {
			c.evidence16 = viewU16(arr[f5Evidence])
		} else {
			c.evidence = viewU64(arr[f5Evidence])
		}
		if occW == 4 {
			c.occ32 = viewU32(arr[f5Occ])
			c.startOcc32 = viewU32(arr[f5StartOcc])
		} else {
			c.occ = viewU64(arr[f5Occ])
			c.startOcc = viewU64(arr[f5StartOcc])
		}
	} else {
		c.floor32 = decodeF32(arr[f5Floor])
		c.qstep = decodeF32(arr[f5Step])
		c.folRankIdx = decodeU16(arr[f5FolRank])
		c.folQSorted = decodeU16(arr[f5FolQ])
		if evW == 2 {
			c.evidence16 = decodeU16(arr[f5Evidence])
		} else {
			c.evidence = decodeU64(arr[f5Evidence])
		}
		if occW == 4 {
			c.occ32 = decodeU32(arr[f5Occ])
			c.startOcc32 = decodeU32(arr[f5StartOcc])
		} else {
			c.occ = decodeU64(arr[f5Occ])
			c.startOcc = decodeU64(arr[f5StartOcc])
		}
	}
	if err := c.validateStructure(edges, fols); err != nil {
		return nil, false, err
	}
	c.initServing(len(data))
	return c, viewed, nil
}

// appendFollowerIDs decodes one node's cnt varint-packed follower IDs
// (first ID, then positive deltas) from its group b, appending them to dst.
// A truncated or overlong stream — possible only in a corrupted blob loaded
// without its CRC check — pads with the running ID: the node misranks, but
// every access stays in bounds and the decoded length always matches the
// node's follower count.
func appendFollowerIDs(dst []uint32, b []byte, cnt int) []uint32 {
	var id uint32
	for i := 0; i < cnt; i++ {
		d, n := binary.Uvarint(b)
		if n <= 0 {
			dst = append(dst, id)
			continue
		}
		b = b[n:]
		if i == 0 {
			id = uint32(d)
		} else {
			id += uint32(d)
		}
		dst = append(dst, id)
	}
	return dst
}
