//go:build !linux

package main

import "fmt"

func filesystemType(string) string { return "unknown" }

func peakRSSMB() (float64, error) {
	return 0, fmt.Errorf("peak RSS is read from /proc and needs Linux")
}
