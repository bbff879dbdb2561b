package bench

import "testing"

// TestRunE17Small drives the epoch-audit experiment end to end at a
// size a CI box can afford: the honest control must account for every
// operation with zero false alarms and close epochs through the audit
// queue, and every adversary trial must land a typed conviction within
// one epoch of first deviation.
func TestRunE17Small(t *testing.T) {
	cfg := DefaultE17Config()
	cfg.OpsPerUser = 16
	cfg.EpochLen = 12
	d, err := RunE17(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := d.Control
	if want := uint64(cfg.Users * cfg.OpsPerUser); c.Ops != want {
		t.Errorf("honest control: server applied %d ops, want %d", c.Ops, want)
	}
	if c.FalseAlarms != 0 {
		t.Errorf("honest control: %d false alarms", c.FalseAlarms)
	}
	if c.QueueCap == 0 || c.EpochsClosed == 0 {
		t.Errorf("honest control: missing queue/epoch accounting: %+v", c)
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
