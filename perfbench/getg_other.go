//go:build !amd64

package main

import "runtime"

// curg returns an identity for the calling goroutine: its id, parsed from the
// header line runtime.Stack writes ("goroutine 42 [running]:"). This walks
// the whole stack, so tracing costs more than on amd64.
func curg() uintptr {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uintptr
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
