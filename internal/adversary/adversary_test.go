package adversary

import (
	"errors"
	"testing"

	"trustedcvs/internal/core"
	"trustedcvs/internal/server"
	"trustedcvs/internal/sig"
	"trustedcvs/internal/vdb"
)

func honestP2(t *testing.T) server.Server {
	t.Helper()
	return server.NewP2(vdb.New(0))
}

func req(u sig.UserID, k, v string) *core.OpRequest {
	return &core.OpRequest{User: u, Op: &vdb.WriteOp{Puts: []vdb.KV{{Key: k, Val: []byte(v)}}}}
}

func TestHonestWrapperIsTransparent(t *testing.T) {
	s := Wrap(honestP2(t), Config{Kind: Honest})
	for i := 0; i < 5; i++ {
		if _, err := s.HandleOp(req(0, "k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	if s.DeviatedAtOp() != 0 {
		t.Fatal("honest wrapper must never deviate")
	}
	if s.ops != 5 {
		t.Fatalf("ops: %d", s.ops)
	}
}

func TestForkDeviationPoint(t *testing.T) {
	s := Wrap(honestP2(t), Config{Kind: Fork, TriggerOp: 3, GroupB: map[sig.UserID]bool{1: true}})
	// Ops 1-2: shared prefix.
	mustOp(t, s, req(0, "a", "1"))
	mustOp(t, s, req(1, "b", "2"))
	// Op 3: group-B op served from the fresh snapshot. The fork is a
	// plain extension of the shared history until main also serves, so
	// the run has not formally deviated yet (Definition 2.1).
	mustOp(t, s, req(1, "c", "3"))
	if s.DeviatedAtOp() != 0 {
		t.Fatalf("deviated at %d, want 0 (fork not yet divergent)", s.DeviatedAtOp())
	}
	// Op 4: group A continues on main, unaware of c — NOW the two
	// histories are mutually unserializable.
	resp := mustOp(t, s, &core.OpRequest{User: 0, Op: &vdb.ReadOp{Keys: []string{"c"}}})
	if s.DeviatedAtOp() != 4 {
		t.Fatalf("deviated at %d, want 4", s.DeviatedAtOp())
	}
	r2 := resp.(*core.OpResponseII)
	ans, err := vdb.DecodeAnswer(r2.Answer)
	if err != nil {
		t.Fatal(err)
	}
	if ans.(vdb.ReadAnswer).Results[0].Found {
		t.Fatal("main branch should not contain the forked write")
	}
}

func TestForkSnapshotExcludesTriggerOp(t *testing.T) {
	// The op at TriggerOp itself (t1) must NOT be visible on the fork.
	s := Wrap(honestP2(t), Config{Kind: Fork, TriggerOp: 2, GroupB: map[sig.UserID]bool{1: true}})
	mustOp(t, s, req(0, "pre", "x"))
	mustOp(t, s, req(0, "t1", "secret")) // op 2 = t1, group A
	resp := mustOp(t, s, &core.OpRequest{User: 1, Op: &vdb.ReadOp{Keys: []string{"t1", "pre"}}})
	ans, _ := vdb.DecodeAnswer(resp.(*core.OpResponseII).Answer)
	results := ans.(vdb.ReadAnswer).Results
	if results[0].Found {
		t.Fatal("fork must not contain t1")
	}
	if !results[1].Found {
		t.Fatal("fork must contain the pre-trigger prefix")
	}
}

func TestTamperAnswerOnlyAtTrigger(t *testing.T) {
	s := Wrap(honestP2(t), Config{Kind: TamperAnswer, TriggerOp: 2})
	r1 := mustOp(t, s, req(0, "a", "1")).(*core.OpResponseII)
	if _, err := vdb.DecodeAnswer(r1.Answer); err != nil {
		t.Fatalf("op 1 should be clean: %v", err)
	}
	if s.DeviatedAtOp() != 0 {
		t.Fatal("no deviation before trigger")
	}
	mustOp(t, s, req(0, "a", "2"))
	if s.DeviatedAtOp() != 2 {
		t.Fatalf("deviated at %d, want 2", s.DeviatedAtOp())
	}
}

func TestKindStrings(t *testing.T) {
	for k := Honest; k <= WithholdBackup; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("unknown kind string")
	}
}

// TestParseKindInvertsString: every Kind round-trips through its name,
// and a name no Kind has is refused with *UnknownBehaviorError.
func TestParseKindInvertsString(t *testing.T) {
	for k := Honest; k <= WithholdBackup; k++ {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, name := range []string{"", "nonsense", "Fork", "kind(1)"} {
		var ube *UnknownBehaviorError
		if _, err := ParseKind(name); !errors.As(err, &ube) || ube.Behavior != name {
			t.Errorf("ParseKind(%q) error = %v, want *UnknownBehaviorError", name, err)
		}
	}
}

// TestTamperStateDefaultsItsRecord: a TamperState config without a Key
// plants the default record at the trigger.
func TestTamperStateDefaultsItsRecord(t *testing.T) {
	s := Wrap(honestP2(t), Config{Kind: TamperState, TriggerOp: 1})
	if s.cfg.Key != "planted-by-server" || string(s.cfg.Value) != "evil" {
		t.Fatalf("default record %q = %q", s.cfg.Key, s.cfg.Value)
	}
	mustOp(t, s, &core.OpRequest{Op: &vdb.ReadOp{Keys: []string{"x"}}})
	want := vdb.New(0)
	if _, err := want.ApplyPlain(&vdb.WriteOp{Puts: []vdb.KV{{Key: "planted-by-server", Val: []byte("evil")}}}); err != nil {
		t.Fatal(err)
	}
	if s.DB().Root() != want.Root() || s.DeviatedAtOp() != 1 {
		t.Fatalf("after the trigger the store is not the one planted record, or deviated at %d; want 1", s.DeviatedAtOp())
	}
}

func mustOp(t *testing.T, s *Server, r *core.OpRequest) any {
	t.Helper()
	resp, err := s.HandleOp(r)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
