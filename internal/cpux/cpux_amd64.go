//go:build amd64

package cpux

// cpuid is implemented in cpuid_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func init() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	HasAESNI = ecx1&(1<<25) != 0
}
