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

// TestClusterEpochWitnessDivergenceWhileAuditing: in epoch-audit mode
// the auditor owns the user state machine, so a witness check the
// caller runs while that auditor still has obligations queued must
// convict a fork without touching the user's state — the race
// detector run of this test is the check that it does not. The
// overlap is a matter of timing, so the test runs several trials.
func TestClusterEpochWitnessDivergenceWhileAuditing(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		if err := witnessCheckWhileAuditing(t); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// witnessCheckWhileAuditing forks user 1 of an epoch-audit cluster,
// keeps its auditor busy with a stream of optimistic operations, and
// runs its witness check once the audit queue holds a backlog. It returns
// an error unless the check convicts the fork.
func witnessCheckWhileAuditing(t *testing.T) error {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{
		Protocol: trustedcvs.ProtocolII, Users: 2, AuditEpoch: 4096,
		Witnesses: 3, CommitEvery: 1,
		Malice: trustedcvs.Malice{Behavior: "fork", TriggerOp: 3, GroupB: []trustedcvs.UserID{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	write := func(u, i int) error {
		_, err := cluster.Do(u, &trustedcvs.WriteOp{Puts: []trustedcvs.KV{{Key: fmt.Sprintf("u%d-%d", u, i), Val: []byte("v")}}})
		return err
	}
	for i := 0; i < 4; i++ {
		for u := 0; u < 2; u++ {
			if err := write(u, i); err != nil {
				t.Fatalf("user %d op %d: %v", u, i, err)
			}
		}
	}
	// The forked user's auditor has observed its forked roots; the
	// witnesses hold the main branch's head.
	if err := cluster.WaitIdle(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cluster.CommitHead()

	stop, streamed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(streamed)
		for i := 4; i < 2000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if write(1, i) != nil {
				return
			}
		}
	}()
	// Check with a backlog queued: the auditor works on through it
	// after the check reads whatever it reads. (A machine on which no
	// backlog builds up still checks the conviction.)
	deadline := time.Now().Add(2 * time.Second)
	for st := cluster.AuditStats(1); st.Submitted < st.Audited+16 && time.Now().Before(deadline); st = cluster.AuditStats(1) {
	}
	err = cluster.VerifyWitnesses(1)
	close(stop)
	<-streamed
	if det, ok := trustedcvs.AsDetection(err); !ok || det.Class != trustedcvs.WitnessDivergence {
		return fmt.Errorf("witness check while auditing = %v, want a witness-divergence detection", err)
	}
	return nil
}
