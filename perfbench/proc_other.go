//go:build !linux

package main

import "os/exec"

// peakRSSMiB needs /proc; elsewhere the peak is not measured.
func peakRSSMiB(pid int) float64 { return 0 }

func dieWithParent(cmd *exec.Cmd) {}
