//go:build linux

package main

import (
	"os/exec"
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread until t with nanosleep, which
// overshoots far less than time.Sleep's timer wake-up on a busy host.
// Signals (the runtime preempts with SIGURG) cut a sleep short; the
// loop sleeps again for what is left.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// peakRSSMB returns the peak resident set size of this process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// dieWithParent makes the child process exit if the parent process that
// started it dies first.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
