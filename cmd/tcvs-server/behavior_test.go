package main

import (
	"errors"
	"strings"
	"testing"

	"trustedcvs/internal/adversary"
)

// TestParseBehaviorRefusesUnknownName: the -behavior flag refuses a
// name no adversary behavior has with the error type the library's
// Malice.Behavior uses, and accepts every known name.
func TestParseBehaviorRefusesUnknownName(t *testing.T) {
	var ube *adversary.UnknownBehaviorError
	if _, err := parseBehavior("nonsense", 1, "", 0); !errors.As(err, &ube) || ube.Behavior != "nonsense" {
		t.Fatalf("parseBehavior(nonsense) error = %v, want *adversary.UnknownBehaviorError", err)
	}
	for k := adversary.Honest; k <= adversary.WithholdBackup; k++ {
		cfg, err := parseBehavior(k.String(), 1, "1", 0)
		if err != nil || cfg.Kind != k {
			t.Errorf("parseBehavior(%q) = %v, %v", k.String(), cfg.Kind, err)
		}
	}
}

// TestBehaviorUsageNamesEveryKind: the -behavior flag's help text lists
// every behavior the adversary package has, in its own spelling.
func TestBehaviorUsageNamesEveryKind(t *testing.T) {
	usage := behaviorUsage()
	for k := adversary.Honest; k <= adversary.WithholdBackup; k++ {
		if !strings.Contains(usage, k.String()) {
			t.Errorf("-behavior help %q does not name %q", usage, k)
		}
	}
}
