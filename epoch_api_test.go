package trustedcvs_test

import (
	"fmt"
	"testing"
	"time"

	"trustedcvs"
	"trustedcvs/internal/core"
)

// TestClusterEpochAuditHonest runs an epoch-audit cluster — witnesses
// included — end to end: CVS commits and raw traffic return
// optimistically, the background auditors close every epoch, and the
// final seal covers the tail with zero false alarms.
func TestClusterEpochAuditHonest(t *testing.T) {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{
		Protocol: trustedcvs.ProtocolII, Users: 3,
		AuditEpoch: 8, Witnesses: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	alice := cluster.Repo(0, "alice")
	if _, err := alice.Commit(map[string][]byte{"README": []byte("epoch\n")}, "import", nil); err != nil {
		t.Fatal(err)
	}
	files, err := cluster.Repo(1, "bob").Checkout("README")
	if err != nil {
		t.Fatal(err)
	}
	if string(files["README"]) != "epoch\n" {
		t.Fatalf("checkout: %q", files["README"])
	}
	for i := 0; i < 24; i++ {
		if _, err := cluster.Do(i%3, &trustedcvs.WriteOp{Puts: []trustedcvs.KV{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}}); err != nil {
			t.Fatal(err)
		}
	}
	cluster.Seal()
	if err := cluster.WaitSealed(10 * time.Second); err != nil {
		t.Fatalf("honest epoch cluster failed audit: %v", err)
	}
	st := cluster.AuditStats(0)
	if st.Epochs == 0 || st.Audited == 0 {
		t.Fatalf("auditor did no work: %+v", st)
	}
}

// TestClusterEpochAuditMaliceDetected: a forking server against an
// epoch-audit cluster must still be convicted — asynchronously, by the
// epoch closure — with a typed detection, never an untyped error.
func TestClusterEpochAuditMaliceDetected(t *testing.T) {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{
		Protocol: trustedcvs.ProtocolII, Users: 2,
		AuditEpoch: 4,
		Malice:     trustedcvs.Malice{Behavior: "fork", TriggerOp: 3, GroupB: []trustedcvs.UserID{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	for i := 0; i < 10; i++ {
		if _, err := cluster.Do(i%2, &trustedcvs.WriteOp{Puts: []trustedcvs.KV{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}}); err != nil {
			break
		}
	}
	cluster.Seal()
	err = cluster.WaitSealed(10 * time.Second)
	if err == nil {
		t.Fatal("fork not detected by epoch audit")
	}
	de, ok := core.AsDetection(err)
	if !ok {
		t.Fatalf("untyped failure: %v", err)
	}
	if de.Class != core.SyncMismatch {
		t.Fatalf("class %v, want SyncMismatch", de.Class)
	}
}

// TestClusterEpochAuditValidation: epoch audit is a Protocol II
// feature.
func TestClusterEpochAuditValidation(t *testing.T) {
	_, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{
		Protocol: trustedcvs.ProtocolI, Users: 2, AuditEpoch: 8,
	})
	if err == nil {
		t.Fatal("AuditEpoch accepted on Protocol I")
	}
}
