// Package cpux detects the x86 ISA extension the hand-written kernel in
// this repository dispatches on: AES-NI for the sgcrypto CTR keystream. On
// other architectures — or older x86 parts — the flag is false and the
// caller keeps its portable Go path, so the package is a read-only
// capability report, never a requirement.
package cpux

// HasAESNI reports AESENC/AESENCLAST support (x86 AES-NI).
var HasAESNI bool
