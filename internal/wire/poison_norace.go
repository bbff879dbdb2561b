//go:build !race

package wire

// poison overwrites a reused frame buffer in race-enabled builds only
// (see poison_race.go).
func poison([]byte) {}
