//go:build race

package main

// raceDivisor shrinks the test slices further under the race detector,
// which slows the simulation about tenfold.
const raceDivisor = 8
