//go:build race

package trustedcvs_test

const raceEnabled = true
