//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

// Fallback for platforms where the CPS5 on-disk layout does not match the
// in-memory one (big-endian): zero-copy views are disabled and FromBytes
// always decodes portably — no unsafe anywhere on this path.

package compiled

func canZeroCopy([]byte) bool { return false }

// The view functions are never reached when canZeroCopy is false.

func viewU16([]byte) []uint16  { panic("compiled: zero-copy view on non-little-endian platform") }
func viewF32([]byte) []float32 { panic("compiled: zero-copy view on non-little-endian platform") }
func viewU32([]byte) []uint32  { panic("compiled: zero-copy view on non-little-endian platform") }
func viewU64([]byte) []uint64  { panic("compiled: zero-copy view on non-little-endian platform") }
