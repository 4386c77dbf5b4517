//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

// Zero-copy CPS5 array views for little-endian platforms: the on-disk and
// in-memory representations of the blob's fixed-width arrays coincide, so
// they are aliased with unsafe.Slice instead of decoded. Big-endian (or otherwise excluded)
// platforms build view_portable.go and always take the decode-copy path.

package compiled

import "unsafe"

// canZeroCopy reports whether blobs may be viewed in place: the platform
// qualifies and the blob base is 8-byte aligned (mmap'd data always is;
// heap slices practically always are, but the layout cannot assume it).
func canZeroCopy(data []byte) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0
}

func viewU16(b []byte) []uint16 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/2)
}

func viewF32(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

func viewU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

func viewU64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}
