package main

// cpuid executes CPUID for one leaf and subleaf. Implemented in
// cpu_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the register state the OS saves. Implemented in
// cpu_amd64.s.
func xgetbv0() uint32

func init() { cpuFeatures = x86Features }

// x86Features probes AVX and AVX2 the way the tensor kernels do: both
// need the OS to save ymm state (OSXSAVE and XCR0 bits 1–2).
func x86Features() map[string]bool {
	_, _, ecx, _ := cpuid(1, 0)
	osYMM := ecx&(1<<27) != 0 && xgetbv0()&6 == 6
	avx := osYMM && ecx&(1<<28) != 0
	_, ebx, _, _ := cpuid(7, 0)
	return map[string]bool{"avx": avx, "avx2": avx && ebx&(1<<5) != 0}
}
