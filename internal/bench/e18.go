package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"trustedcvs/internal/adversary"
	"trustedcvs/internal/audit"
	"trustedcvs/internal/core"
	"trustedcvs/internal/deploy"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/fault"
	"trustedcvs/internal/server"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wal"
)

// E18 is the crash matrix for the durable audit pipeline: epoch-audit
// clients journaling every obligation (driver.NewP2EpochWAL) are
// killed at four points of the epoch lifecycle — mid-epoch,
// exactly at an epoch boundary, with a seal in flight, and during a
// post-checkpoint journal truncation (a fault-scheduled crash between
// the cursor write and the segment unlink) — each in an honest run and
// in a tamper-before-crash run where the server corrupts an answer
// whose optimistic release beats the crash, so the tampered bytes
// exist only in the victim's journal. Three claims are under test:
//
//  1. Conviction survives the crash: every tampered cell must convict
//     after recovery, from journal replay alone — the exposure window
//     closes across the restart.
//  2. Zero loss, zero noise: every honest cell must replay exactly the
//     obligations the kill left unverified (replayed == journaled past
//     the cursor — nothing submitted is lost), finish its workload,
//     seal, and close every epoch with zero false alarms.
//  3. Recovery is bounded: replay re-verification finishes within the
//     budget, not proportional to pre-crash history (a cursor is
//     written whenever a closed epoch frees a sealed journal segment,
//     so the frames past it span at most one segment plus the open
//     window).
//
// The tamper-before-crash cells plant the record the way a real crash
// loses the race: the (adversarial) server tampers the answer of one
// extra transport call, and the record is appended to the dead
// client's journal exactly as its Submit would have — answer released,
// auditor never ran. The live auditor path cannot lose this race
// deterministically (its worker races the kill), so the cell pins the
// worst case by construction.

// E18Config parameterizes RunE18.
type E18Config struct {
	// EpochLen is the audit epoch length in global operations.
	EpochLen uint64
	// ReplayBudget bounds each cell's recovery: restart-to-reverified
	// (honest) or restart-to-conviction (tampered).
	ReplayBudget time.Duration
}

// DefaultE18Config is what cmd/tcvs-bench runs.
func DefaultE18Config() E18Config {
	return E18Config{EpochLen: 8, ReplayBudget: 30 * time.Second}
}

// E18Cell is one (crash point, tampered?) cell of the matrix.
type E18Cell struct {
	CrashPoint string
	Tampered   bool
	// TriggerOp is the global op whose answer the server tampered
	// (tampered cells only).
	TriggerOp uint64
	// SubmittedAtKill counts obligations whose answers were released
	// before the kill, summed over both clients.
	SubmittedAtKill uint64
	// CursorEpochs records each client's durable cursor at the kill
	// (-1 = no epoch durably closed).
	CursorEpochs []int64
	// ExpectedReplay counts journal frames past the cursors — the
	// obligations recovery must re-verify; Replayed is what the
	// restarted auditors actually replayed.
	ExpectedReplay int
	Replayed       uint64
	ZeroLoss       bool
	// ReplayMillis is restart-to-reverified (honest) or
	// restart-to-conviction (tampered).
	ReplayMillis float64
	Detected     bool
	Class        string
	FailEpoch    uint64
	// Degraded reports the degrade-to-sync flip (during-truncate: the
	// fault-scheduled remove crash must flip it).
	Degraded    bool
	FalseAlarms int
}

// E18Data is the full matrix.
type E18Data struct {
	Users                int
	EpochLen             uint64
	ReplayBudgetMillis   float64
	Cells                []E18Cell
	AllTamperedConvicted bool
	ZeroLoss             bool
	FalseAlarms          int
	MaxReplayMillis      float64
}

// e18Point is one crash point's choreography.
type e18Point struct {
	name    string
	preOps  int  // sequential global ops before the kill
	postOps int  // ops after restart (honest cells)
	sealOne bool // put client 0's seal in flight before the kill
	truncFS bool // fault-schedule a crash at the first journal unlink
	valLen  int  // bytes per pre-kill value (0: one byte)
}

func e18Points(epochLen uint64) []e18Point {
	n := int(epochLen)
	return []e18Point{
		// Epoch 0 closed, half of epoch 1's obligations only in journals.
		{name: "mid-epoch", preOps: n + n/2, postOps: 4},
		// Killed exactly on epoch 1's last op: a full epoch of
		// obligations journaled but unclosable until after restart.
		{name: "at-boundary", preOps: 2 * n, postOps: 4},
		// Client 0's seal is in flight when both die; seals are never
		// journaled, so recovery must re-seal on its own schedule.
		{name: "during-seal", preOps: n + 2, postOps: 2, sealOne: true},
		// The checkpoint wrote its cursor, then the segment unlink hit a
		// scheduled crash: stale-but-checksummed frames survive for
		// replay to skip, and the auditor must flip to degrade-to-sync.
		// A cursor is written only when it frees a sealed segment, so
		// the values are large enough that each journal fills its first
		// 1 MiB segment within epoch 0.
		{name: "during-truncate", preOps: n + 2, postOps: 4, truncFS: true, valLen: 400 << 10},
	}
}

// e18ExpectedReplay reads one dead client's journal the way recovery
// will: its durable cursor plus every frame past it.
func e18ExpectedReplay(dir string) (cursor int64, frames int, err error) {
	cur, err := audit.LoadCursor(dir)
	if err != nil {
		return 0, 0, err
	}
	cursor = -1
	if cur != nil {
		cursor = cur.Epoch
	}
	err = wal.Replay(dir, func(fr wal.Record) error {
		if int64(fr.Epoch) > cursor {
			frames++
		}
		return nil
	})
	return cursor, frames, err
}

// e18Plant issues one extra transport call — whose answer the
// adversary tampers — and appends the obligation to the dead client's
// journal exactly as its Submit would have: the answer was released,
// the crash won the race to the auditor.
func e18Plant(addr, dir string, g, epochLen uint64) error {
	conn, err := transport.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	op := putOp("e18-planted")
	raw, err := conn.Call(&core.OpRequest{User: 0, Op: op})
	if err != nil {
		return err
	}
	resp, ok := raw.(*core.OpResponseII)
	if !ok {
		return fmt.Errorf("E18: bad planted response type %T", raw)
	}
	if want := g - 1; resp.Ctr != want {
		return fmt.Errorf("E18: planted op landed on ctr %d, want %d", resp.Ctr, want)
	}
	return audit.AppendRaw(dir, audit.Record{Op: op, Resp: resp}, (g-1)/epochLen)
}

// e18Cell runs one cell of the matrix.
func e18Cell(pt e18Point, tampered bool, cfg E18Config) (E18Cell, error) {
	const users = 2
	epochLen := cfg.EpochLen
	cell := E18Cell{CrashPoint: pt.name, Tampered: tampered}

	root, err := os.MkdirTemp("", "tcvs-e18-")
	if err != nil {
		return cell, err
	}
	defer os.RemoveAll(root)
	userDir := func(i int) string { return filepath.Join(root, fmt.Sprintf("user-%d", i)) }

	var srv server.Server = server.NewP2(vdb.New(0))
	plantG := uint64(pt.preOps) + 1
	if tampered {
		cell.TriggerOp = plantG
		srv = adversary.Wrap(srv, adversary.Config{Kind: adversary.TamperAnswer, TriggerOp: plantG})
	}
	var ffs *fault.FaultyFS
	if pt.truncFS {
		ffs = &fault.FaultyFS{CrashAtRemove: 1}
	}
	restarted := false
	dep, err := deployTCP(deploy.Config{
		Server: srv, Users: users, EpochLen: epochLen, Options: transport.Options{IdleTimeout: -1},
		// Client 0's first incarnation journals through the
		// fault-scheduled filesystem; its restart gets a healthy disk,
		// as after a real reboot.
		AuditWAL: func(i int) (string, durable.FS) {
			if ffs != nil && i == 0 && !restarted {
				return userDir(i), ffs
			}
			return userDir(i), nil
		},
	})
	if err != nil {
		return cell, err
	}
	defer dep.Close()

	// Phase 1: the doomed deployment.
	if err := writeRoundRobin(dep.Clients, "e18", 0, pt.preOps, max(pt.valLen, 1)); err != nil {
		return cell, fmt.Errorf("E18 %s pre-%w", pt.name, err)
	}
	for _, dc := range dep.Clients {
		// A failed client falls through to WaitAudited, which reports it.
		if !pollUntil(30*time.Second, time.Millisecond, func() bool { return dc.Err() != nil || dc.Audit().Completed() >= 1 }) {
			return cell, fmt.Errorf("E18 %s: epoch 0 not closed before deadline", pt.name)
		}
		if err := dc.WaitAudited(30 * time.Second); err != nil {
			return cell, fmt.Errorf("E18 %s drain: %w", pt.name, err)
		}
	}
	if pt.sealOne {
		dep.Clients[0].Seal() // in flight at the kill; never journaled
	}
	for _, dc := range dep.Clients {
		if dc.Err() != nil {
			cell.FalseAlarms++
		}
		cell.SubmittedAtKill += dc.Audit().Stats().Submitted
	}
	// Kill. Stop drops the unverified queue on the floor — the journal
	// is the only survivor, exactly as in a real crash.
	victim := dep.Clients[0]
	for i, dc := range dep.Clients {
		dc.Close()
		dep.Clients[i] = nil
	}
	if pt.truncFS {
		if !ffs.Crashed() {
			return cell, fmt.Errorf("E18 %s: scheduled truncation crash never fired", pt.name)
		}
		cell.Degraded = victim.Audit().Stats().Durability == audit.DurabilityDegradedSync
		if !cell.Degraded {
			return cell, fmt.Errorf("E18 %s: journal death did not flip degrade-to-sync", pt.name)
		}
	}
	if tampered {
		if err := e18Plant(dep.TCP.Addr(), userDir(0), plantG, epochLen); err != nil {
			return cell, fmt.Errorf("E18 %s plant: %w", pt.name, err)
		}
	}
	for i := 0; i < users; i++ {
		cur, frames, err := e18ExpectedReplay(userDir(i))
		if err != nil {
			return cell, fmt.Errorf("E18 %s journal %d: %w", pt.name, i, err)
		}
		cell.CursorEpochs = append(cell.CursorEpochs, cur)
		cell.ExpectedReplay += frames
	}

	// Phase 2: recovery. Only the victim restarts in a tampered cell:
	// conviction must come from its own journal replay, no peer help.
	restarted = true
	t0 := time.Now()
	for i := range dep.Clients {
		if tampered && i > 0 {
			break
		}
		if dep.Clients[i], err = dep.StartClient(i); err != nil {
			return cell, fmt.Errorf("E18 %s restart: %w", pt.name, err)
		}
	}
	if tampered {
		aud := dep.Clients[0].Audit()
		if !pollUntil(cfg.ReplayBudget, time.Millisecond, func() bool { return aud.Err() != nil }) {
			return cell, fmt.Errorf("E18 %s: tampered record not convicted within the replay budget", pt.name)
		}
		cell.ReplayMillis = float64(time.Since(t0)) / float64(time.Millisecond)
		cell.Detected = true
		var eaf *audit.EpochAuditFailure
		if errors.As(aud.Err(), &eaf) {
			cell.FailEpoch = eaf.Epoch
		}
		cell.Class = detectionClass(aud.Err())
		cell.Replayed = aud.Stats().Replayed
		cell.ZeroLoss = true // conviction supersedes the replay count
		return cell, nil
	}

	// Honest: re-verify exactly the journaled tail, then finish the
	// workload and close every epoch.
	if !pollUntil(cfg.ReplayBudget, time.Millisecond, func() bool {
		cell.Replayed = 0
		for _, dc := range dep.Clients {
			cell.Replayed += dc.Audit().Stats().Replayed
		}
		return cell.Replayed >= uint64(cell.ExpectedReplay)
	}) {
		return cell, fmt.Errorf("E18 %s: replayed %d of %d journaled obligations within the budget",
			pt.name, cell.Replayed, cell.ExpectedReplay)
	}
	for _, dc := range dep.Clients {
		if err := dc.WaitAudited(cfg.ReplayBudget); err != nil {
			cell.FalseAlarms++
		}
	}
	cell.ReplayMillis = float64(time.Since(t0)) / float64(time.Millisecond)
	cell.ZeroLoss = cell.Replayed == uint64(cell.ExpectedReplay)

	if err := writeRoundRobin(dep.Clients, "e18-post", 0, pt.postOps, 1); err != nil {
		cell.FalseAlarms++
		return cell, nil
	}
	for _, dc := range dep.Clients {
		dc.Seal()
	}
	cell.FalseAlarms += dep.Drain(cfg.ReplayBudget)
	return cell, nil
}

// RunE18 runs the full crash matrix.
func RunE18(cfg E18Config) (*E18Data, error) {
	d := &E18Data{
		Users: 2, EpochLen: cfg.EpochLen,
		ReplayBudgetMillis:   float64(cfg.ReplayBudget) / float64(time.Millisecond),
		AllTamperedConvicted: true, ZeroLoss: true,
	}
	for _, pt := range e18Points(cfg.EpochLen) {
		for _, tampered := range []bool{false, true} {
			cell, err := e18Cell(pt, tampered, cfg)
			if err != nil {
				return nil, err
			}
			d.Cells = append(d.Cells, cell)
			d.FalseAlarms += cell.FalseAlarms
			if tampered {
				d.AllTamperedConvicted = d.AllTamperedConvicted && cell.Detected
			} else {
				d.ZeroLoss = d.ZeroLoss && cell.ZeroLoss
			}
			if cell.ReplayMillis > d.MaxReplayMillis {
				d.MaxReplayMillis = cell.ReplayMillis
			}
		}
	}
	return d, nil
}

// Table renders the data as the E18 exhibit.
func (d *E18Data) Table() *Table {
	t := &Table{
		ID:       "E18",
		Title:    "Crash-durable audit: WAL replay closes the exposure window across kill/restart",
		PaperRef: "Section 2.2.1's detection guarantee held across crashes; AUDIT.md \"Durability & recovery\"",
		Columns:  []string{"crash-point", "tampered", "submitted", "journaled-tail", "replayed", "zero-loss", "replay-ms", "convicted", "class", "alarms"},
	}
	for _, c := range d.Cells {
		convicted := "-"
		if c.Tampered {
			convicted = boolMark(c.Detected)
		}
		t.AddRow(c.CrashPoint, boolMark(c.Tampered), c.SubmittedAtKill, c.ExpectedReplay, c.Replayed,
			boolMark(c.ZeroLoss), fmt.Sprintf("%.0f", c.ReplayMillis), convicted, c.Class, c.FalseAlarms)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("every tamper-before-crash cell convicted from journal replay alone: %v; false alarms across all honest cells: %d", d.AllTamperedConvicted, d.FalseAlarms),
		fmt.Sprintf("zero loss: restarted auditors replayed exactly the obligations journaled past the durable cursor in every honest cell: %v", d.ZeroLoss),
		fmt.Sprintf("recovery bounded: max restart-to-reverified %4.0f ms against a %.0f ms budget; a closed epoch that frees a journal segment is cursor-truncated, so replay scales with one segment plus the open tail, not history", d.MaxReplayMillis, d.ReplayBudgetMillis))
	return t
}
