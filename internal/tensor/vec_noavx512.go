//go:build amd64 && !purego && noavx512

package tensor

// The noavx512 build tag keeps the AVX-512 kernels off for a whole build, so
// the AVX2 kernels, and the packages above tensor on them, are tested on
// AVX-512 hosts too: make test-kernels runs its set with and without it.
const avx512Allowed = false
