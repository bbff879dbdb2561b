package audit_test

import (
	"errors"
	"fmt"
	"time"

	"trustedcvs/internal/audit"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/vdb"
)

// Example drives one client through an honest epoch-audit run: every
// operation's answer is consumed immediately, verification happens on
// the background auditor, and the seal closes the tail window. With
// epoch length 4, the 10th op (global counter 10) lands in epoch 2,
// so the all-sealed final check closes epochs 0–2.
func Example() {
	db := vdb.New(0)
	srv := proto2.NewServer(db)
	user := proto2.NewUser(1, db.Root(), 1<<20)

	// In a real deployment Publish broadcasts the report over the hub
	// and the driver's receive loop feeds SubmitReport; with a single
	// client a direct loopback plays both roles.
	var aud *audit.Auditor
	a, err := audit.New(audit.Config{
		User: user, Epoch: 4, Users: 1,
		Publish: func(r audit.Report) error { aud.SubmitReport(r); return nil },
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	aud = a
	defer a.Stop()

	for i := 0; i < 10; i++ {
		adm, err := a.WaitAdmissible() // at most one epoch ahead
		if err != nil {
			fmt.Println(err)
			return
		}
		op := &vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}}
		resp, err := srv.HandleOp(user.Request(op))
		if err != nil {
			fmt.Println(err)
			return
		}
		// Once the proof obligation is queued, the answer Submit hands
		// back is usable right now.
		q, err := a.Submit(adm, audit.Record{Op: op, Resp: resp})
		if err != nil {
			fmt.Println(err)
			return
		}
		a.NoteEpoch(resp.Ctr + 1)
		if _, err := q.Answer(); err != nil {
			fmt.Println(err)
			return
		}
	}
	a.Seal() // stopped operating: publish final registers
	if err := a.WaitSealed(10 * time.Second); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("failure:", a.Err())
	fmt.Println("epochs closed:", a.Completed())
	// Output:
	// failure: <nil>
	// epochs closed: 3
}

// Example_detection shows the asynchronous conviction path: the
// client has already consumed a tampered answer optimistically, and
// the background audit surfaces a typed *EpochAuditFailure naming the
// epoch and the first bad global counter.
func Example_detection() {
	db := vdb.New(0)
	srv := proto2.NewServer(db)
	user := proto2.NewUser(1, db.Root(), 1<<20)

	var aud *audit.Auditor
	a, err := audit.New(audit.Config{
		User: user, Epoch: 4, Users: 1,
		Publish: func(r audit.Report) error { aud.SubmitReport(r); return nil },
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	aud = a
	defer a.Stop()

	for i := 0; i < 3; i++ {
		adm, err := a.WaitAdmissible()
		if err != nil {
			break // terminal failure already visible to the hot path
		}
		op := &vdb.WriteOp{Puts: []vdb.KV{{Key: fmt.Sprintf("k%d", i), Val: []byte("v")}}}
		resp, err := srv.HandleOp(user.Request(op))
		if err != nil {
			fmt.Println(err)
			return
		}
		if i == 1 { // the server lies about the second answer
			resp.Answer = append([]byte(nil), resp.Answer...)
			resp.Answer[0] ^= 0xff
		}
		if _, err := a.Submit(adm, audit.Record{Op: op, Resp: resp}); err != nil {
			break // terminal failure already visible to the hot path
		}
	}
	_ = a.WaitDrained(10 * time.Second)

	var ef *audit.EpochAuditFailure
	fmt.Println("typed failure:", errors.As(a.Err(), &ef))
	fmt.Println("epoch:", ef.Epoch, "first bad counter:", ef.Ctr)
	// Output:
	// typed failure: true
	// epoch: 0 first bad counter: 2
}
