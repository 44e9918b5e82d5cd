package tensor

// Test hooks for this package's external tests. AVX512 reports whether the
// binary runs the AVX-512 kernels at all: the CPU has them and the build
// lacks the noavx512 tag. SetAVX512 turns them on or off and reports whether
// they were on; it must not be called while kernels run.
var AVX512 = cpuAVX512

func SetAVX512(on bool) (was bool) { return setAVX512(on) }
