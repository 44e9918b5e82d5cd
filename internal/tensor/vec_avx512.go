//go:build amd64 && !purego && !noavx512

package tensor

// Without the noavx512 build tag the AVX-512 kernels run wherever the CPU
// has them (vec_noavx512.go).
const avx512Allowed = true
