package main

// curg returns the address of the calling goroutine's runtime descriptor,
// read from thread-local storage: an identity for the goroutine that costs a
// few instructions.
func curg() uintptr
