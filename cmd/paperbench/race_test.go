//go:build race

package main

// raceEnabled reports a build with the race detector, under which a whole
// -quick -experiment all run takes minutes instead of seconds.
const raceEnabled = true
