package main

// cpuFeatures reports the SIMD extensions the tensor kernels dispatch
// on: AVX for the float micro-kernel, AVX2 for the integer one. Off
// amd64 the kernels run their portable Go paths; cpu_amd64.go installs
// the CPUID probe at init.
var cpuFeatures = func() map[string]bool { return map[string]bool{"avx": false, "avx2": false} }
