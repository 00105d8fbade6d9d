//go:build !race

package main

const raceDivisor = 1
