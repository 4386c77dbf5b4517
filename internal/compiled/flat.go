package compiled

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"repro/internal/markov"
)

// ErrMmapUnsupported reports that this platform cannot memory-map model
// files; callers fall back to heap decoding.
var ErrMmapUnsupported = errors.New("compiled: mmap not supported on this platform")

// ViewMode selects how FromBytes materialises the model from a CPS5 blob.
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

// FromBytes materialises a Model from a CPS5 blob produced by AppendFlat5.
// Corrupted or truncated blobs fail with an error wrapping store.ErrCorrupt;
// they never panic.
func FromBytes(data []byte, mode ViewMode) (*Model, error) {
	m, _, err := fromBytes(data, mode)
	return m, err
}

// decodeComponents fills the tiny per-component arrays, which are always
// decoded (their in-memory types are platform-dependent and they are read
// once per prediction anyway).
func (c *Model) decodeComponents(sigma, maxLen []byte) error {
	c.sigma = decodeF64(sigma)
	c.maxLen = make([]int, c.k)
	for i := range c.maxLen {
		v := binary.LittleEndian.Uint64(maxLen[8*i:])
		if v > math.MaxInt32 {
			return compactCorrupt("component %d window bound %d overflows", i, v)
		}
		c.maxLen[i] = int(v)
	}
	for i, s := range c.sigma {
		// Training clamps σ to at least 0.05. A σ whose Eq. (4) density at
		// distance 0 is not finite (NaN once σ² underflows, +Inf once 1/σ
		// overflows) would make every weight NaN.
		if g := markov.Gaussian(0, s); !(s > 0) || math.IsInf(s, 1) || math.IsNaN(g) || math.IsInf(g, 1) {
			return compactCorrupt("component %d sigma %v is not positive and finite", i, s)
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

// OpenMmapAdvised memory-maps the CPS5 compiled blob stored at [offset,
// offset+length) of the file at path and returns a Model whose fixed-width
// arrays alias the mapping: the zero-copy cold-start path. Kernel paging hints adv are applied to the
// mapping (none when adv is the zero value); the applied-hint summary is
// readable via Model.MapAdvice. The mapping is released when the model is
// garbage-collected, or eagerly via Release. Returns ErrMmapUnsupported on
// platforms without mmap (callers fall back to heap decoding).
func OpenMmapAdvised(path string, offset, length int64, adv MapAdvice) (*Model, error) {
	if !mmapSupported {
		return nil, ErrMmapUnsupported
	}
	if offset < 0 || length < compactArraysStart {
		return nil, compactCorrupt("blob window [%d, +%d) is implausible", offset, length)
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
		return nil, compactCorrupt("blob window [%d, +%d) overruns the %d-byte file", offset, length, fi.Size())
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

// Release eagerly unmaps the file backing of a model returned by
// OpenMmapAdvised (a no-op for compiled or heap-decoded models). The model
// must not be used afterwards.
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
