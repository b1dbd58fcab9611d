//go:build !linux

package main

import (
	"os/exec"
	"runtime"
	"time"
)

// sleepUntil falls back to time.Sleep where nanosleep is not wired up;
// generator lateness is still recorded, so a run that falls behind is
// still marked invalid.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// peakRSSMB approximates the peak resident set size by the memory the
// Go runtime obtained from the system.
func peakRSSMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func dieWithParent(*exec.Cmd) {}
