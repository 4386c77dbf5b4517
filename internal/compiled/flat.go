package compiled

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"repro/internal/store"
)

// Flat (CPS3) encoding — the exact mmap-able compiled-model layout.
//
// CPS3 stores every CSR array of the Model as a contiguous run of
// fixed-width little-endian values at an 8-byte-aligned offset. Loading is
// therefore not decoding at all: when the
// blob sits at a page-aligned file offset it is syscall.Mmap'd and the
// arrays are aliased straight out of the mapping (zero copies, zero
// allocations proportional to model size, pages shared read-only across
// every process serving the same file and faulted in lazily by the kernel).
// On big-endian or mmap-less platforms the same blob is decoded portably —
// without unsafe — into heap slices.
//
// Layout (all integers little-endian):
//
//	  0  "CPS3" magic
//	  4  uint32 layout version (1)
//	  8  uint64 blob length (including this header)
//	 16  uint32 k, uint32 vocab
//	 24  uint32 depth, uint32 node count n (root included)
//	 32  uint64 edge count, uint64 follower count
//	 48  uint32 CRC-32 (IEEE) of blob[64:]
//	 52  12 reserved zero bytes
//	 64  array table: 14 x { uint64 byte offset, uint64 element count }
//	288  the arrays, each 8-byte aligned
//
// The CRC is verified by ViewCopy loads (and therefore by every load on
// platforms without zero-copy support). ViewAuto zero-copy loads skip it —
// checksumming would fault in every page, defeating lazy loading — and rely
// on the structural validation below plus defensive masking in the descent
// (see Model.match): a corrupted payload can misrank, but it cannot panic
// or index out of bounds.
const (
	flatMagic       = "CPS3"
	flatVersion     = 1
	flatHeaderSize  = 64
	flatArrayCount  = 14
	flatArraysStart = flatHeaderSize + flatArrayCount*16 // 288, 8-byte aligned
)

// Array-table indices, in on-disk order.
const (
	faSigma = iota
	faMaxLen
	faChildStart
	faChildKey
	faEvidence
	faOcc
	faStartOcc
	faFloor
	faFolStart
	faFolIDRanked
	faFolPRanked
	faFolIDSorted
	faFolPSorted
	faFolCount
)

// flatElemSize[i] is the on-disk element width of array i.
var flatElemSize = [flatArrayCount]int{8, 8, 4, 4, 8, 8, 8, 8, 4, 4, 8, 4, 8, 8}

// ErrMmapUnsupported reports that this platform cannot memory-map model
// files; callers fall back to heap decoding.
var ErrMmapUnsupported = errors.New("compiled: mmap not supported on this platform")

// ViewMode selects how FromBytes materialises the model from a flat blob.
type ViewMode int

const (
	// ViewAuto aliases the arrays directly out of the blob when the platform
	// is little-endian and the blob is 8-byte aligned (always true for
	// mmap'd data), falling back to ViewCopy otherwise. The blob must stay
	// alive and unmodified for the model's lifetime.
	ViewAuto ViewMode = iota
	// ViewCopy decodes into fresh heap slices with binary.LittleEndian and
	// verifies the blob's CRC; the blob may be discarded afterwards.
	ViewCopy
)

func (c *Model) flatCounts() [flatArrayCount]int {
	n := c.nodes
	f := len(c.folIDSorted)
	return [flatArrayCount]int{
		c.k, c.k, n + 1, len(c.childKey),
		n, n, n, n,
		n + 1, f, f, f, f, f,
	}
}

// flatLayout assigns each array its 8-byte-aligned offset and returns the
// total blob size.
func flatLayout(counts [flatArrayCount]int) (offs [flatArrayCount]uint64, total uint64) {
	off := uint64(flatArraysStart)
	for i, cnt := range counts {
		off = (off + 7) &^ 7
		offs[i] = off
		off += uint64(cnt) * uint64(flatElemSize[i])
	}
	return offs, (off + 7) &^ 7
}

// FlatSize returns the exact byte length of the model's CPS3 encoding.
func (c *Model) FlatSize() int64 {
	_, total := flatLayout(c.flatCounts())
	return int64(total)
}

// AppendFlat appends the model's CPS3 encoding to dst and returns the
// extended slice. Callers that persist it for mmap loading must place the
// blob at a page-aligned file offset (core.Save pads for this); FromBytes
// itself only needs 8-byte alignment. CPS3 stores exact float64
// probabilities and raw counts, so the model must not be quantised: a model
// loaded from CPS5 re-encodes with AppendFlat5.
func (c *Model) AppendFlat(dst []byte) []byte {
	if c.Quantised() {
		panic("compiled: AppendFlat on a quantised model (CPS3 needs exact probabilities; re-encode with AppendFlat5)")
	}
	counts := c.flatCounts()
	offs, total := flatLayout(counts)
	base := len(dst)
	dst = append(dst, make([]byte, total)...)
	b := dst[base:]
	le := binary.LittleEndian

	copy(b, flatMagic)
	le.PutUint32(b[4:], flatVersion)
	le.PutUint64(b[8:], total)
	le.PutUint32(b[16:], uint32(c.k))
	le.PutUint32(b[20:], uint32(c.vocab))
	le.PutUint32(b[24:], uint32(c.depth))
	le.PutUint32(b[28:], uint32(len(c.evidence)))
	le.PutUint64(b[32:], uint64(len(c.childKey)))
	le.PutUint64(b[40:], uint64(len(c.folIDSorted)))
	for i := range offs {
		le.PutUint64(b[flatHeaderSize+16*i:], offs[i])
		le.PutUint64(b[flatHeaderSize+16*i+8:], uint64(counts[i]))
	}

	putF64 := func(a int, vals []float64) {
		for i, v := range vals {
			le.PutUint64(b[offs[a]+8*uint64(i):], math.Float64bits(v))
		}
	}
	putU64 := func(a int, vals []uint64) {
		for i, v := range vals {
			le.PutUint64(b[offs[a]+8*uint64(i):], v)
		}
	}
	putI32 := func(a int, vals []int32) {
		for i, v := range vals {
			le.PutUint32(b[offs[a]+4*uint64(i):], uint32(v))
		}
	}
	putU32 := func(a int, vals []uint32) {
		for i, v := range vals {
			le.PutUint32(b[offs[a]+4*uint64(i):], v)
		}
	}
	putF64(faSigma, c.sigma)
	for i, v := range c.maxLen {
		le.PutUint64(b[offs[faMaxLen]+8*uint64(i):], uint64(v))
	}
	putI32(faChildStart, c.childStart)
	putU32(faChildKey, c.childKey)
	putU64(faEvidence, c.evidence)
	putU64(faOcc, c.occ)
	putU64(faStartOcc, c.startOcc)
	putF64(faFloor, c.floor)
	putI32(faFolStart, c.folStart)
	putU32(faFolIDRanked, c.folIDRanked)
	putF64(faFolPRanked, c.folPRanked)
	putU32(faFolIDSorted, c.folIDSorted)
	putF64(faFolPSorted, c.folPSorted)
	putU64(faFolCount, c.folCount)

	le.PutUint32(b[48:], crc32.ChecksumIEEE(b[flatHeaderSize:]))
	return dst
}

// WriteFlat writes the CPS3 encoding to w.
func (c *Model) WriteFlat(w io.Writer) (int64, error) {
	blob := c.AppendFlat(nil)
	n, err := w.Write(blob)
	return int64(n), err
}

func flatCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: CPS3 %s", store.ErrCorrupt, fmt.Sprintf(format, args...))
}

// FromBytes materialises a Model from a flat blob produced by AppendFlat
// (CPS3, exact) or AppendFlat5 (CPS5, compact); the leading magic selects
// the decoder. Corrupted or truncated blobs fail with an error wrapping
// store.ErrCorrupt; they never panic.
func FromBytes(data []byte, mode ViewMode) (*Model, error) {
	m, _, err := fromBytes(data, mode)
	return m, err
}

// fromBytes additionally reports whether the returned model aliases data
// (zero-copy view) rather than owning heap copies.
func fromBytes(data []byte, mode ViewMode) (*Model, bool, error) {
	if len(data) >= 4 && string(data[:4]) == compactMagic {
		return fromBytes5(data, mode)
	}
	if len(data) >= 4 && string(data[:4]) != flatMagic {
		return nil, false, flatCorrupt("magic %q, want %q", data[:4], flatMagic)
	}
	c, edges, fols, err := readFlatHeader(data, flatVersion, flatCorrupt)
	if err != nil {
		return nil, false, err
	}
	n := c.nodes
	le := binary.LittleEndian

	want := [flatArrayCount]uint64{
		uint64(c.k), uint64(c.k), uint64(n + 1), edges,
		uint64(n), uint64(n), uint64(n), uint64(n),
		uint64(n + 1), fols, fols, fols, fols, fols,
	}
	var arr [flatArrayCount][]byte
	for i := 0; i < flatArrayCount; i++ {
		off := le.Uint64(data[flatHeaderSize+16*i:])
		cnt := le.Uint64(data[flatHeaderSize+16*i+8:])
		if cnt != want[i] {
			return nil, false, flatCorrupt("array %d holds %d elements, header implies %d", i, cnt, want[i])
		}
		bytes := cnt * uint64(flatElemSize[i])
		if off%8 != 0 || off < flatArraysStart || off > uint64(len(data)) || bytes > uint64(len(data))-off {
			return nil, false, flatCorrupt("array %d at [%d, %d+%d) escapes the %d-byte blob", i, off, off, bytes, len(data))
		}
		arr[i] = data[off : off+bytes]
	}

	viewed := mode == ViewAuto && canZeroCopy(data)
	if !viewed {
		if got, wantCRC := crc32.ChecksumIEEE(data[flatHeaderSize:]), le.Uint32(data[48:]); got != wantCRC {
			return nil, false, flatCorrupt("CRC mismatch %08x != %08x", got, wantCRC)
		}
	}

	if err := c.decodeComponents(arr[faSigma], arr[faMaxLen], flatCorrupt); err != nil {
		return nil, false, err
	}

	if viewed {
		c.childStart = viewI32(arr[faChildStart])
		c.childKey = viewU32(arr[faChildKey])
		c.evidence = viewU64(arr[faEvidence])
		c.occ = viewU64(arr[faOcc])
		c.startOcc = viewU64(arr[faStartOcc])
		c.floor = viewF64(arr[faFloor])
		c.folStart = viewI32(arr[faFolStart])
		c.folIDRanked = viewU32(arr[faFolIDRanked])
		c.folPRanked = viewF64(arr[faFolPRanked])
		c.folIDSorted = viewU32(arr[faFolIDSorted])
		c.folPSorted = viewF64(arr[faFolPSorted])
		c.folCount = viewU64(arr[faFolCount])
	} else {
		c.childStart = decodeI32(arr[faChildStart])
		c.childKey = decodeU32(arr[faChildKey])
		c.evidence = decodeU64(arr[faEvidence])
		c.occ = decodeU64(arr[faOcc])
		c.startOcc = decodeU64(arr[faStartOcc])
		c.floor = decodeF64(arr[faFloor])
		c.folStart = decodeI32(arr[faFolStart])
		c.folIDRanked = decodeU32(arr[faFolIDRanked])
		c.folPRanked = decodeF64(arr[faFolPRanked])
		c.folIDSorted = decodeU32(arr[faFolIDSorted])
		c.folPSorted = decodeF64(arr[faFolPSorted])
		c.folCount = decodeU64(arr[faFolCount])
	}

	// Structural invariants the descent indexes through. With these checked,
	// arbitrary payload corruption can misrank but cannot index out of range.
	if err := c.validateStructure(edges, fols); err != nil {
		return nil, false, err
	}
	c.initServing()
	return c, viewed, nil
}

// readFlatHeader checks the 64-byte header both flat encodings share (the
// caller has matched the magic) and that the blob holds the array table
// after it — 14 entries in either encoding — and returns a Model holding the
// header's scalars, with the edge and follower counts it claims. Errors go
// through corrupt, which names the encoding.
func readFlatHeader(data []byte, version uint32, corrupt func(string, ...any) error) (c *Model, edges, fols uint64, err error) {
	if len(data) < flatArraysStart {
		return nil, 0, 0, corrupt("blob of %d bytes is shorter than the header", len(data))
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[4:]); v != version {
		return nil, 0, 0, corrupt("unsupported layout version %d", v)
	}
	if bl := le.Uint64(data[8:]); bl != uint64(len(data)) {
		return nil, 0, 0, corrupt("header claims %d bytes, blob has %d (truncated?)", bl, len(data))
	}
	c = &Model{
		k:     int(le.Uint32(data[16:])),
		vocab: int(le.Uint32(data[20:])),
		depth: int(le.Uint32(data[24:])),
		nodes: int(le.Uint32(data[28:])),
	}
	edges = le.Uint64(data[32:])
	fols = le.Uint64(data[40:])
	if c.k <= 0 || c.k > maxComponents {
		return nil, 0, 0, corrupt("implausible component count %d", c.k)
	}
	if c.vocab <= 0 {
		return nil, 0, 0, corrupt("implausible vocab %d", c.vocab)
	}
	if c.nodes <= 0 || uint64(c.nodes-1) != edges {
		return nil, 0, 0, corrupt("%d edges for %d nodes", edges, c.nodes)
	}
	// The header is outside the CRC, and depth sizes every scratch's path.
	if uint64(c.depth) > edges {
		return nil, 0, 0, corrupt("depth %d over %d edges", c.depth, edges)
	}
	if fols > uint64(len(data)) { // each follower entry occupies >= 1 byte
		return nil, 0, 0, corrupt("implausible follower count %d", fols)
	}
	return c, edges, fols, nil
}

// decodeComponents fills the tiny per-component arrays, which are always
// decoded (their in-memory types are platform-dependent and they are read
// once per prediction anyway).
func (c *Model) decodeComponents(sigma, maxLen []byte, corrupt func(string, ...any) error) error {
	c.sigma = decodeF64(sigma)
	c.maxLen = make([]int, c.k)
	for i := range c.maxLen {
		v := binary.LittleEndian.Uint64(maxLen[8*i:])
		if v > math.MaxInt32 {
			return corrupt("component %d window bound %d overflows", i, v)
		}
		c.maxLen[i] = int(v)
	}
	for i, s := range c.sigma {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return corrupt("component %d sigma is not finite", i)
		}
	}
	return nil
}

func (c *Model) validateStructure(edges, fols uint64) error {
	cs := c.childStart
	if cs[0] != 0 || uint64(cs[len(cs)-1]) != edges {
		return flatCorrupt("child offsets cover %d of %d edges", cs[len(cs)-1], edges)
	}
	for v := 1; v < len(cs); v++ {
		if cs[v] < cs[v-1] {
			return flatCorrupt("child offsets not monotone at node %d", v-1)
		}
	}
	fs := c.folStart
	if fs[0] != 0 || uint64(fs[len(fs)-1]) != fols {
		return flatCorrupt("follower offsets cover %d of %d entries", fs[len(fs)-1], fols)
	}
	for v := 1; v < len(fs); v++ {
		if fs[v] < fs[v-1] {
			return flatCorrupt("follower offsets not monotone at node %d", v-1)
		}
	}
	return nil
}

// Portable little-endian decoders: the unsafe-free path every platform can
// take, and the only path on big-endian machines.

func decodeU16(b []byte) []uint16 {
	out := make([]uint16, len(b)/2)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return out
}

func decodeF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func decodeI32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func decodeU32(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func decodeU64(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

func decodeF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// MapAdvice requests best-effort kernel paging hints for an OpenMmapAdvised
// mapping. Hints are advisory by design: a kernel that refuses one (old
// version, RLIMIT_MEMLOCK) degrades to plain demand paging, never to an
// error — the outcome is recorded on the model (MapAdvice) so operators can
// see what actually took effect.
type MapAdvice struct {
	// WillNeed issues madvise(MADV_WILLNEED): the kernel starts reading the
	// whole blob ahead asynchronously, converting the lazy first-touch page
	// faults of a fresh mmap into sequential readahead — the cold-start
	// latency spike of the first few thousand requests disappears.
	WillNeed bool
	// Lock issues mlock(2) on the mapping: trie pages can never be evicted
	// under memory pressure, bounding tail latency on loaded hosts. Requires
	// RLIMIT_MEMLOCK headroom; failure is recorded, not fatal.
	Lock bool
}

// OpenMmap memory-maps the flat compiled blob (CPS3 or CPS5 — dispatched on
// the blob's own magic) stored at [offset, offset+length) of the file at
// path and returns a Model whose arrays alias the mapping: the
// zero-copy cold-start path. The mapping is released when the model is
// garbage-collected, or eagerly via Release. Returns ErrMmapUnsupported on
// platforms without mmap (callers fall back to heap decoding).
func OpenMmap(path string, offset, length int64) (*Model, error) {
	return OpenMmapAdvised(path, offset, length, MapAdvice{})
}

// OpenMmapAdvised is OpenMmap with kernel paging hints applied to the
// resulting mapping (no-ops when adv is the zero value). The applied-hint
// summary is readable via Model.MapAdvice.
func OpenMmapAdvised(path string, offset, length int64, adv MapAdvice) (*Model, error) {
	if !mmapSupported {
		return nil, ErrMmapUnsupported
	}
	if offset < 0 || length < flatArraysStart {
		return nil, flatCorrupt("blob window [%d, +%d) is implausible", offset, length)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping outlives the descriptor
	// Touching mapped pages past EOF raises SIGBUS, not an error — reject
	// truncated files up front.
	if fi, err := f.Stat(); err != nil {
		return nil, err
	} else if offset+length > fi.Size() {
		return nil, flatCorrupt("blob window [%d, +%d) overruns the %d-byte file", offset, length, fi.Size())
	}
	window, mapping, err := mmapRange(f, offset, length)
	if err != nil {
		return nil, fmt.Errorf("compiled: mmap %s: %w", path, err)
	}
	m, viewed, err := fromBytes(window, ViewAuto)
	if err != nil || !viewed {
		// Decode error, or the platform copied the arrays to the heap anyway
		// (big-endian): the mapping is not needed beyond this call.
		merr := munmapRange(mapping)
		if err != nil {
			return nil, err
		}
		if merr != nil {
			return nil, merr
		}
		return m, nil
	}
	m.release = mapping
	m.cleanup = runtime.AddCleanup(m, func(mp []byte) { _ = munmapRange(mp) }, mapping)
	m.mapAdvice = applyMapAdvice(mapping, adv)
	return m, nil
}

// applyMapAdvice issues the requested hints against the mapping and returns
// a human-readable summary of what took effect (for LoadInfo / healthz),
// e.g. "willneed,mlock" or "willneed,mlock:operation not permitted". Empty
// when nothing was requested.
func applyMapAdvice(mapping []byte, adv MapAdvice) string {
	var parts []string
	if adv.WillNeed {
		if err := madviseWillNeed(mapping); err != nil {
			parts = append(parts, "willneed:"+err.Error())
		} else {
			parts = append(parts, "willneed")
		}
	}
	if adv.Lock {
		if err := mlockRange(mapping); err != nil {
			parts = append(parts, "mlock:"+err.Error())
		} else {
			parts = append(parts, "mlock")
		}
	}
	return strings.Join(parts, ",")
}

// MapAdvice reports the kernel paging hints applied to this model's mapping
// ("" for heap models or mappings opened without hints); hints that failed
// carry the error after a colon.
func (c *Model) MapAdvice() string { return c.mapAdvice }

// Release eagerly unmaps the file backing of a model returned by OpenMmap
// (a no-op for compiled or heap-decoded models). The model must not be used
// afterwards.
func (c *Model) Release() error {
	c.releaseOnce.Do(func() {
		if c.release == nil {
			return
		}
		c.cleanup.Stop()
		c.releaseErr = munmapRange(c.release)
		c.release = nil
	})
	return c.releaseErr
}
