package trustedcvs_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"trustedcvs"
)

func TestClusterQuickstart(t *testing.T) {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{
		Protocol: trustedcvs.ProtocolII, Users: 3, SyncEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	alice := cluster.Repo(0, "alice")
	bob := cluster.Repo(1, "bob")

	if _, err := alice.Commit(map[string][]byte{"README": []byte("hello\n")}, "import", nil); err != nil {
		t.Fatal(err)
	}
	files, err := bob.Checkout("README")
	if err != nil {
		t.Fatal(err)
	}
	if string(files["README"]) != "hello\n" {
		t.Fatalf("checkout: %q", files["README"])
	}
	// Cross enough ops for a sync; everything must stay clean.
	for i := 0; i < 10; i++ {
		if _, err := cluster.Repo(i%3, "dev").Commit(map[string][]byte{"f": []byte(fmt.Sprintf("%d\n", i))}, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := cluster.WaitIdle(i, 5*time.Second); err != nil {
			t.Fatalf("user %d: %v", i, err)
		}
	}
}

func TestClusterAllProtocolsHonest(t *testing.T) {
	for _, p := range []trustedcvs.Protocol{trustedcvs.ProtocolI, trustedcvs.ProtocolII, trustedcvs.ProtocolIII} {
		cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{Protocol: p, Users: 2, SyncEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if _, err := cluster.Repo(i%2, "dev").Commit(map[string][]byte{"x": []byte(fmt.Sprintf("%d\n", i))}, "", nil); err != nil {
				t.Fatalf("%v: %v", p, err)
			}
		}
		if p == trustedcvs.ProtocolIII {
			cluster.AdvanceEpoch()
			if _, err := cluster.Repo(0, "dev").Checkout("x"); err != nil {
				t.Fatalf("%v after epoch: %v", p, err)
			}
		}
		cluster.Close()
	}
}

func TestClusterMaliceDetected(t *testing.T) {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{
		Protocol: trustedcvs.ProtocolII, Users: 2, SyncEvery: 3,
		Malice: trustedcvs.Malice{Behavior: "fork", TriggerOp: 2, GroupB: []trustedcvs.UserID{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var detection error
	for i := 0; detection == nil && i < 20; i++ {
		for u := 0; u < 2; u++ {
			if _, err := cluster.Repo(u, "dev").Commit(map[string][]byte{"f": []byte(fmt.Sprintf("u%d-%d\n", u, i))}, "", nil); err != nil {
				detection = err
				break
			}
		}
		if detection == nil {
			for u := 0; u < 2; u++ {
				if err := cluster.WaitIdle(u, 5*time.Second); err != nil {
					detection = err
					break
				}
			}
		}
	}
	de, ok := trustedcvs.AsDetection(detection)
	if !ok {
		t.Fatalf("fork not detected: %v", detection)
	}
	if de.Class != trustedcvs.SyncMismatch {
		t.Fatalf("class: %v", de.Class)
	}
}

func TestClusterP3ForkDetectedWithinTwoEpochs(t *testing.T) {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{
		Protocol: trustedcvs.ProtocolIII, Users: 2,
		Malice: trustedcvs.Malice{Behavior: "fork", TriggerOp: 5, GroupB: []trustedcvs.UserID{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var detection error
	detectedEpoch := -1
	for epoch := 0; detection == nil && epoch < 7; epoch++ {
		for u := 0; u < 2 && detection == nil; u++ {
			for j := 0; j < 2; j++ { // the >=2 ops/epoch workload assumption
				_, err := cluster.Repo(u, "dev").Commit(
					map[string][]byte{fmt.Sprintf("u%d.txt", u): []byte(fmt.Sprintf("e%d-%d\n", epoch, j))}, "", nil)
				if err != nil {
					detection = err
					detectedEpoch = epoch
					break
				}
			}
		}
		cluster.AdvanceEpoch()
	}
	de, ok := trustedcvs.AsDetection(detection)
	if !ok {
		t.Fatalf("P3 fork not detected: %v", detection)
	}
	// The fork lands in epoch 1 (ops 5+); Theorem 4.3 bounds detection
	// by epoch 3.
	if detectedEpoch > 3 {
		t.Fatalf("detected in epoch %d (class %v), bound is 3", detectedEpoch, de.Class)
	}
}

func TestClusterRawKV(t *testing.T) {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{Users: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.Do(0, &trustedcvs.WriteOp{Puts: []trustedcvs.KV{{Key: "k", Val: []byte("v")}}}); err != nil {
		t.Fatal(err)
	}
	ans, err := cluster.Do(1, &trustedcvs.ReadOp{Keys: []string{"k"}})
	if err != nil {
		t.Fatal(err)
	}
	ra := ans.(trustedcvs.ReadAnswer)
	if !ra.Results[0].Found || string(ra.Results[0].Val) != "v" {
		t.Fatalf("read: %+v", ra)
	}
}

func TestClusterOverTCP(t *testing.T) {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{
		Protocol: trustedcvs.ProtocolII, Users: 2, SyncEvery: 4, Network: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.ServerAddr() == "" || cluster.HubAddr() == "" {
		t.Fatal("network cluster must expose addresses")
	}
	for i := 0; i < 10; i++ {
		if _, err := cluster.Repo(i%2, "dev").Commit(map[string][]byte{"net": []byte(fmt.Sprintf("%d\n", i))}, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < 2; u++ {
		if err := cluster.WaitIdle(u, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	log, err := cluster.Repo(0, "dev").Log("net")
	if err != nil || len(log) != 10 {
		t.Fatalf("log: %d entries, %v", len(log), err)
	}
}

// TestClusterOverTCPProtectedByDefault: a Network cluster built with no
// overload configuration at all serves through the admission
// controller at its default limit.
func TestClusterOverTCPProtectedByDefault(t *testing.T) {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{Users: 1, Network: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for i := 0; i < 3; i++ {
		if _, err := cluster.Do(0, &trustedcvs.WriteOp{Puts: []trustedcvs.KV{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := cluster.AdmissionStats(); st.Limit != 64 || st.Admitted == 0 {
		t.Fatalf("admission stats = %+v, want limit 64 and the operations admitted", st)
	}
}

func TestClusterConflictIsNotDetection(t *testing.T) {
	cluster, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{Users: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	a, b := cluster.Repo(0, "a"), cluster.Repo(1, "b")
	if _, err := a.Commit(map[string][]byte{"f": []byte("1\n")}, "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commit(map[string][]byte{"f": []byte("2\n")}, "", map[string]uint64{"f": 1}); err != nil {
		t.Fatal(err)
	}
	_, err = b.Commit(map[string][]byte{"f": []byte("3\n")}, "", map[string]uint64{"f": 1})
	if !errors.Is(err, trustedcvs.ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
	if _, ok := trustedcvs.AsDetection(err); ok {
		t.Fatal("a CVS conflict is not a server deviation")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{}); err == nil {
		t.Fatal("zero users must be rejected")
	}
	var ube *trustedcvs.UnknownBehaviorError
	if _, err := trustedcvs.NewLocalCluster(trustedcvs.ClusterConfig{
		Users: 1, Malice: trustedcvs.Malice{Behavior: "nonsense"},
	}); !errors.As(err, &ube) || ube.Behavior != "nonsense" {
		t.Fatalf("unknown behavior: error %v, want *UnknownBehaviorError", err)
	}
}
