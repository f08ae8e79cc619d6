// Package enginetest holds what the engine's tests and its callers'
// tests share.
package enginetest

import (
	"bytes"
	"runtime"
)

// DatapathGoroutines counts the goroutines running or started by engine
// or fetch code, and apart from them the shims' relays; the runtime's own
// are in neither. A relay is told by its creator: the stack of one that
// runs on another thread is not in the dump.
func DatapathGoroutines() (n, relays int) {
	buf := make([]byte, 4<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		switch {
		case bytes.Contains(g, []byte("created by pccproteus/internal/engine.NewShim")):
			relays++
		case bytes.Contains(g, []byte("internal/engine.")) || bytes.Contains(g, []byte("internal/fetch.")):
			n++
		}
	}
	return n, relays
}
