package compiled

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"repro/internal/store"
)

// Compact-edge flat (CPS5) encoding — the delta/varint tier below CPS4.
//
// CPS4 already narrowed every per-node array to its needed width; what it
// still pays full price for are the two uint32 arrays that dominate the blob
// on real models: the follower-ID lists and the fixed-width CSR offset
// arrays. CPS5 attacks exactly those. Follower IDs within a node are already
// stored in ascending order, and query IDs are assigned by training-log
// frequency, so the gaps between consecutive IDs are small: CPS5 stores each
// node's follower list as a varint first ID followed by varint deltas.
// Likewise the childStart/folStart CSR offset arrays (strictly derivable
// from per-node counts) become varint count streams, and the child edge keys
// (symbol-sorted per node) become first-key + deltas. An opt-in uint8
// probability tier halves the fixed-point array on top of CPS4's uint16 —
// with the same per-node float32 step and exact IEEE dequantisation, refused
// via ErrUnquantisable when collapsing to 256 levels would perturb a node's
// ranked order by more than the CPS4 grid (see AppendFlat5).
//
// Varint data cannot be viewed zero-copy, so CPS5 splits the load:
//
//   - the CSR skeleton (child offsets, child keys, follower offsets, the
//     per-node byte extents of the follower-ID groups) is decoded eagerly
//     into heap slices — descent needs random access, and these streams are
//     the small part of the blob;
//   - the follower-ID region — the bulk — stays varint-packed (aliased out
//     of the mapping on little-endian platforms, copied otherwise) and is
//     decoded per matched node at serve time into pooled scratch, keeping
//     Predict/PredictInto at zero steady-state allocations;
//   - the fixed-width payload arrays (steps, fixed-point probabilities,
//     ranked views, evidence, occurrences, floors) keep CPS4's zero-copy
//     view semantics.
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
//	 54  uint8 probability element width (1 or 2)
//	 55  9 reserved zero bytes
//	 64  array table: 14 x { uint64 byte offset, uint64 count }
//	288  the arrays, each 8-byte aligned
//
// For fixed-width arrays the table count is the element count; for the five
// varint regions it is the region's byte length. As with CPS3/CPS4, ViewCopy
// loads verify the CRC; zero-copy loads skip it and rely on structural
// validation plus defensive clamping — a corrupted payload (including a
// truncated varint stream, which the serve-time decoder pads) can misrank
// but cannot panic or index out of bounds.
const (
	compactMagic       = "CPS5"
	compactVersion     = 1
	compactArrayCount  = 14
	compactArraysStart = flatHeaderSize + compactArrayCount*16 // 288, 8-byte aligned
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

// quant8Steps is the opt-in coarse fixed-point resolution: probabilities on
// the grid {0, step, ..., 255·step} with step = maxP/quant8Steps.
const quant8Steps = 255

func compactCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: CPS5 %s", store.ErrCorrupt, fmt.Sprintf(format, args...))
}

// compactProbW reports the on-disk probability width AppendFlat5 will use:
// models already loaded from CPS5 re-emit their stored tier (byte-stable
// round trips; the probs8 request cannot be honoured without the discarded
// raw statistics), everything else encodes uint16 by default and uint8 on
// request.
func (c *Model) compactProbW(probs8 bool) int {
	if c.folIDVar != nil {
		if c.folQ8 != nil {
			return 1
		}
		return 2
	}
	if probs8 {
		return 1
	}
	return 2
}

// compactRegions builds the five varint regions of the CPS5 layout. Models
// loaded from CPS5 copy their follower-ID region verbatim; exact and
// CPS4-loaded models delta-encode from the ID-sorted follower arrays.
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
	if c.folIDVar != nil {
		for v := 0; v < n; v++ {
			folLen = binary.AppendUvarint(folLen, uint64(c.folOff[v+1]-c.folOff[v]))
		}
		folID = c.folIDVar
		return
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
func (c *Model) compactCounts(probs8 bool, regions [5][]byte) (counts, sizes [compactArrayCount]int) {
	n := c.nodes
	f := c.Followers()
	evW, occW := c.quantWidths()
	probW := c.compactProbW(probs8)
	counts = [compactArrayCount]int{
		c.k, c.k,
		n, n, n, n, n,
		f, f,
		len(regions[0]), len(regions[1]), len(regions[2]), len(regions[3]), len(regions[4]),
	}
	sizes = [compactArrayCount]int{8, 8, evW, occW, occW, 4, 4, probW, 2, 1, 1, 1, 1, 1}
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

// Flat5Size returns the exact byte length of the model's CPS5 encoding with
// the requested probability tier (uint8 when probs8, uint16 otherwise).
func (c *Model) Flat5Size(probs8 bool) int64 {
	childCnt, childKey, folCnt, folLen, folID := c.compactRegions()
	counts, sizes := c.compactCounts(probs8, [5][]byte{childCnt, childKey, folCnt, folLen, folID})
	_, total := compactLayout(counts, sizes)
	return int64(total)
}

// AppendFlat5 appends the model's CPS5 compact encoding to dst and returns
// the extended slice. Exact models are quantised on the fly (on CPS4's
// uint16 grid by default, so CPS5 probabilities dequantise to the exact
// values a CPS4 encoding of the same model would serve); probs8 requests the
// coarse uint8 tier instead. Already-quantised models re-emit their stored
// fixed-point values — CPS4-loaded models on the uint16 tier (or re-graded
// to uint8 on request), CPS5-loaded models on whichever tier they carry
// (probs8 is ignored; the raw statistics needed to re-grade are gone) — so
// load → save round trips are byte-identical.
//
// Fails with ErrUnquantisable when the statistics do not fit: a node with
// more than 65535 followers, a float32 step underflow, or — uint8 tier
// only — a node where collapsing to 256 levels would merge two ranked
// followers whose probabilities differ by more than the CPS4 grid step
// (maxP/65535), i.e. where the coarse tier would reorder beyond the error
// bound CPS4 already promises. Callers then fall back to CPS4 (and from
// there to exact CPS3).
func (c *Model) AppendFlat5(dst []byte, probs8 bool) ([]byte, error) {
	childCnt, childKeyV, folCnt, folLen, folID := c.compactRegions()
	regions := [5][]byte{childCnt, childKeyV, folCnt, folLen, folID}
	counts, sizes := c.compactCounts(probs8, regions)
	offs, total := compactLayout(counts, sizes)
	evW, occW, probW := sizes[f5Evidence], sizes[f5Occ], sizes[f5FolQ]
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
	b[54] = byte(probW)
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
	if err := c.putCompactQuantised(b, offs, probW); err != nil {
		return dst[:base], err
	}

	le.PutUint32(b[48:], crc32.ChecksumIEEE(b[flatHeaderSize:]))
	return dst, nil
}

// putCompactQuantised fills the step, folQ and folRank arrays of a CPS5
// blob: copied verbatim from an already-quantised model carrying the target
// width, computed from the (exact or dequantised) probabilities otherwise.
func (c *Model) putCompactQuantised(b []byte, offs [compactArrayCount]uint64, probW int) error {
	le := binary.LittleEndian
	verbatim := c.quantised && ((probW == 2 && c.folQ8 == nil) || (probW == 1 && c.folQ8 != nil))
	if verbatim {
		for v := 0; v < c.nodes; v++ {
			le.PutUint32(b[offs[f5Step]+4*uint64(v):], math.Float32bits(c.qstep[v]))
		}
		if probW == 2 {
			for i, q := range c.folQSorted {
				le.PutUint16(b[offs[f5FolQ]+2*uint64(i):], q)
			}
		} else {
			copy(b[offs[f5FolQ]:], c.folQ8)
		}
		for i, r := range c.folRankIdx {
			le.PutUint16(b[offs[f5FolRank]+2*uint64(i):], r)
		}
		return nil
	}
	// probAt reads the probability at sorted index j of node v from whichever
	// representation the model carries: exact float64, or the stored
	// fixed-point value dequantised exactly as serving would.
	probAt := func(v int, j int32) float64 {
		if c.folPSorted != nil {
			return c.folPSorted[j]
		}
		return float64(c.qstep[v]) * float64(c.folQSorted[j])
	}
	steps := quantSteps
	if probW == 1 {
		steps = quant8Steps
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
		for j := lo; j < hi; j++ {
			if p := probAt(v, j); p > maxP {
				maxP = p
			}
		}
		step := float32(maxP / float64(steps))
		if step == 0 && maxP > 0 {
			return fmt.Errorf("%w: node %d max probability %g underflows the float32 step", ErrUnquantisable, v, maxP)
		}
		le.PutUint32(b[offs[f5Step]+4*uint64(v):], math.Float32bits(step))
		for j := lo; j < hi; j++ {
			q := math.Round(probAt(v, j) / float64(step))
			if q > float64(steps) {
				q = float64(steps)
			}
			if probW == 2 {
				le.PutUint16(b[offs[f5FolQ]+2*uint64(j):], uint16(q))
			} else {
				b[offs[f5FolQ]+uint64(j)] = byte(q)
			}
		}
		// Ranked view as local indices into the node's ID-sorted range, and —
		// uint8 tier only — the rank-agreement check: adjacent ranked
		// followers that collapse to one coarse level must already have been
		// within the CPS4 grid step of each other, otherwise the coarse tier
		// would swap ranks beyond the promised error bound.
		var ids []uint32
		if c.folIDSorted != nil {
			ids = c.folIDSorted[lo:hi]
		} else {
			ids = c.appendFollowerIDs(make([]uint32, 0, support), int32(v))
		}
		grid := maxP / quantSteps
		for r := int32(0); r < int32(support); r++ {
			var id uint32
			if c.folIDRanked != nil {
				id = c.folIDRanked[lo+r]
			} else {
				idx := lo + int32(c.folRankIdx[lo+r])
				if idx >= hi {
					idx = lo
				}
				id = ids[idx-lo]
			}
			idx := sort.Search(support, func(i int) bool { return ids[i] >= id })
			le.PutUint16(b[offs[f5FolRank]+2*uint64(lo+r):], uint16(idx))
			if probW == 1 && r > 0 {
				pPrev := probAt(v, lo+searchID(ids, c.rankedID(v, lo, r-1)))
				p := probAt(v, lo+int32(idx))
				qPrev := math.Round(pPrev / float64(step))
				q := math.Round(p / float64(step))
				if qPrev == q && pPrev-p > grid {
					return fmt.Errorf("%w: node %d ranked followers %d and %d collapse to one uint8 level %g apart",
						ErrUnquantisable, v, r-1, r, pPrev-p)
				}
			}
		}
	}
	return nil
}

// rankedID resolves the r-th ranked follower ID of node v (lo is the node's
// follower base), bridging the exact and quantised ranked representations.
func (c *Model) rankedID(v int, lo, r int32) uint32 {
	if c.folIDRanked != nil {
		return c.folIDRanked[lo+r]
	}
	idx := lo + int32(c.folRankIdx[lo+r])
	if idx >= c.folStart[v+1] {
		idx = lo
	}
	return c.folIDSorted[idx]
}

// searchID returns the position of id in the ascending slice ids (which must
// contain it — encoder-side use only).
func searchID(ids []uint32, id uint32) int32 {
	return int32(sort.Search(len(ids), func(i int) bool { return ids[i] >= id }))
}

// WriteFlat5 writes the CPS5 encoding (uint16 probability tier) to w.
func (c *Model) WriteFlat5(w io.Writer) (int64, error) {
	blob, err := c.AppendFlat5(nil, false)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(blob)
	return int64(n), err
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
// (fromBytes) has already matched the magic. The CSR skeleton is decoded
// eagerly (descent needs random access); the varint follower-ID region is
// retained packed — aliased from data when viewing, copied otherwise — and
// decoded per node at serve time.
func fromBytes5(data []byte, mode ViewMode) (*Model, bool, error) {
	if len(data) < compactArraysStart {
		return nil, false, compactCorrupt("blob of %d bytes is shorter than the header", len(data))
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[4:]); v != compactVersion {
		return nil, false, compactCorrupt("unsupported layout version %d", v)
	}
	if bl := le.Uint64(data[8:]); bl != uint64(len(data)) {
		return nil, false, compactCorrupt("header claims %d bytes, blob has %d (truncated?)", bl, len(data))
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
	evW, occW, probW := int(data[52]), int(data[53]), int(data[54])
	if c.k <= 0 || c.k > maxComponents {
		return nil, false, compactCorrupt("implausible component count %d", c.k)
	}
	if c.vocab <= 0 {
		return nil, false, compactCorrupt("implausible vocab %d", c.vocab)
	}
	if n <= 0 || uint64(n-1) != edges {
		return nil, false, compactCorrupt("%d edges for %d nodes", edges, n)
	}
	if fols > uint64(len(data)) { // each follower entry occupies >= 1 byte
		return nil, false, compactCorrupt("implausible follower count %d", fols)
	}
	if (evW != 2 && evW != 8) || (evW == 2 && c.k > 16) {
		return nil, false, compactCorrupt("evidence width %d for %d components", evW, c.k)
	}
	if occW != 4 && occW != 8 {
		return nil, false, compactCorrupt("occurrence width %d", occW)
	}
	if probW != 1 && probW != 2 {
		return nil, false, compactCorrupt("probability width %d", probW)
	}
	c.nodes = n

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

	c.sigma = decodeF64(arr[f5Sigma])
	c.maxLen = make([]int, c.k)
	for i := range c.maxLen {
		v := le.Uint64(arr[f5MaxLen][8*i:])
		if v > math.MaxInt32 {
			return nil, false, compactCorrupt("component %d window bound %d overflows", i, v)
		}
		c.maxLen[i] = int(v)
	}
	for i, s := range c.sigma {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, false, compactCorrupt("component %d sigma is not finite", i)
		}
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
	c.folOff = make([]int32, n+1)
	sum = 0
	for v, l := range vals {
		sum += l
		if sum > uint64(len(arr[f5FolIDV])) {
			return nil, false, compactCorrupt("follower extents overflow the %d-byte ID region at node %d", len(arr[f5FolIDV]), v)
		}
		c.folOff[v+1] = int32(sum)
	}
	if sum != uint64(len(arr[f5FolIDV])) {
		return nil, false, compactCorrupt("follower extents cover %d of %d ID-region bytes", sum, len(arr[f5FolIDV]))
	}

	if viewed {
		c.floor32 = viewF32(arr[f5Floor])
		c.qstep = viewF32(arr[f5Step])
		c.folRankIdx = viewU16(arr[f5FolRank])
		c.folIDVar = arr[f5FolIDV]
		if probW == 2 {
			c.folQSorted = viewU16(arr[f5FolQ])
		} else {
			c.folQ8 = arr[f5FolQ]
		}
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
		c.folIDVar = append([]byte(nil), arr[f5FolIDV]...)
		if probW == 2 {
			c.folQSorted = decodeU16(arr[f5FolQ])
		} else {
			c.folQ8 = append([]byte(nil), arr[f5FolQ]...)
		}
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
	// An empty follower-ID region still needs a non-nil sentinel: folIDVar
	// is the CPS5 discriminator throughout the serving path.
	if c.folIDVar == nil {
		c.folIDVar = make([]byte, 0)
	}

	if err := c.validateStructure(edges, fols); err != nil {
		return nil, false, err
	}
	c.initServing()
	return c, viewed, nil
}

// appendFollowerIDs decodes node v's varint-packed follower IDs (first ID,
// then positive deltas) from the CPS5 region, appending them to dst. A
// truncated or overlong stream — possible only in a corrupted blob loaded
// without its CRC check — pads with the running ID: the node misranks, but
// every access stays in bounds and the decoded length always matches the
// node's follower count.
func (c *Model) appendFollowerIDs(dst []uint32, v int32) []uint32 {
	cnt := int(c.folStart[v+1] - c.folStart[v])
	b := c.folIDVar[c.folOff[v]:c.folOff[v+1]]
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
