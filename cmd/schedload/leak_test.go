package main

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain is the package's goroutine-leak gate: once the suite finishes,
// the goroutine count must return to (near) the pre-suite baseline, so a run
// that returned before its client goroutines and test servers wound down
// fails the package.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		// Allow a small slack for runtime/testing internals, and poll: test
		// goroutines unwind asynchronously after their stacks drain.
		const slack = 2
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= baseline+slack {
				break
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines, baseline %d (+%d slack)\n%s\n",
					runtime.NumGoroutine(), baseline, slack, buf[:n])
				code = 1
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	os.Exit(code)
}
