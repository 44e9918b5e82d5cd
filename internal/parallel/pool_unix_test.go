//go:build unix

package parallel

import (
	"syscall"
	"testing"
	"time"
)

func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Skipf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdlePoolBurnsNoCPU locks the bound on the hot window: once it has
// passed, the helpers of an idle pool are parked, not polling. Seven polling
// helpers would burn two cores for the whole interval.
func TestIdlePoolBurnsNoCPU(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	p.For(64, 1, func(lo, hi int) {})
	time.Sleep(50 * hotWindow)
	const idle = 200 * time.Millisecond
	before := cpuTime(t)
	time.Sleep(idle)
	if burned := cpuTime(t) - before; burned > idle/4 {
		t.Fatalf("idle pool burned %v of CPU in %v", burned, idle)
	}
}
