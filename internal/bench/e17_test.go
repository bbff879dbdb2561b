package bench

import "testing"

// TestRunE17Small drives the epoch-audit experiment end to end at a
// size a CI box can afford: both modes must finish every honest point
// with zero false alarms, and every adversary trial must land a typed
// conviction within one epoch of first deviation. The headline
// speedup is machine-dependent and recorded by tcvs-bench, not
// asserted here.
func TestRunE17Small(t *testing.T) {
	cfg := DefaultE17Config()
	cfg.DBSize = 100
	cfg.OpsPerClient = 16
	cfg.EpochFactor = 4
	cfg.ClientCounts = []int{2, 4}
	cfg.DetectEpochLen = 12
	d, err := RunE17(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(cfg.ClientCounts); len(d.Points) != want {
		t.Fatalf("got %d points, want %d", len(d.Points), want)
	}
	for _, pt := range d.Points {
		if pt.Ops != pt.Clients*cfg.OpsPerClient {
			t.Errorf("%s/%d: delivered %d ops, want %d", pt.Mode, pt.Clients, pt.Ops, pt.Clients*cfg.OpsPerClient)
		}
		if pt.OpsPerSec <= 0 || pt.AnswerOpsPerSec < pt.OpsPerSec {
			t.Errorf("%s/%d: throughput answered=%v verified=%v", pt.Mode, pt.Clients, pt.AnswerOpsPerSec, pt.OpsPerSec)
		}
		if pt.FalseAlarms != 0 {
			t.Errorf("%s/%d: %d false alarms on an honest run", pt.Mode, pt.Clients, pt.FalseAlarms)
		}
		if pt.Mode == "epoch" {
			if pt.QueueCap == 0 || pt.EpochsClosed == 0 {
				t.Errorf("%s/%d: missing queue/epoch accounting: %+v", pt.Mode, pt.Clients, pt)
			}
		}
	}
	if len(d.Trials) != 6 {
		t.Fatalf("got %d trials, want 6", len(d.Trials))
	}
	if !d.AllDetected || !d.AllWithinOneEpoch {
		t.Fatalf("detection bound violated: %+v", d.Trials)
	}
	for _, tr := range d.Trials {
		if tr.Class == "" {
			t.Errorf("%s@%d: untyped conviction", tr.Behavior, tr.TriggerOp)
		}
	}
}
