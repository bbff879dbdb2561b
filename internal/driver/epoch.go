package driver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"trustedcvs/internal/audit"
	"trustedcvs/internal/binenc"
	"trustedcvs/internal/broadcast"
	"trustedcvs/internal/core"
	"trustedcvs/internal/core/proto2"
	"trustedcvs/internal/durable"
	"trustedcvs/internal/transport"
	"trustedcvs/internal/vdb"
	"trustedcvs/internal/wire"
)

// epochReportMsg carries one client's epoch-audit register snapshot
// (or seal) over the broadcast channel. It rides the same FIFO hub as
// the sync-mode traffic but never touches the client's round state:
// the receive loop hands it straight to the auditor.
type epochReportMsg struct {
	Report audit.Report
}

// wireEpochReportMsg is epochReportMsg's wire tag (wire.Register); part
// of the wire format.
const wireEpochReportMsg = 97

// The report inside the message nests as tag + body, as core
// registered it, written and read without boxing it.
func init() {
	wire.Register(wireEpochReportMsg, func(b []byte, m *epochReportMsg) ([]byte, error) {
		b = binary.AppendUvarint(b, m.Report.Epoch)
		b = binenc.AppendBool(b, m.Report.Seal)
		b = binenc.AppendBool(b, m.Report.Retract)
		return wire.AppendTyped(b, m.Report.Report)
	}, func(r *binenc.Reader) *epochReportMsg {
		m := new(epochReportMsg)
		m.Report.Epoch, m.Report.Seal, m.Report.Retract = r.Uvarint(), r.Bool(), r.Bool()
		if !wire.ReadTyped(r, &m.Report.Report) && r.Err() == nil {
			r.Fail("an epoch report without its register snapshot")
		}
		return m
	})
}

// NewP2EpochWAL builds a Protocol II client in epoch-audit mode: Do
// returns as soon as the server answers, and every verification
// obligation — VO replay, register fold, the closure check, the
// witness quorum check — runs on a background auditor that closes one
// epoch of epochLen global operations at a time. Detection weakens
// from "before the next operation" to "within one epoch"; see the
// audit package for the exact bound. queue is the audit queue capacity
// (0 = audit.DefaultQueue); when it fills, Do degrades to the audit
// rate rather than dropping obligations.
//
// walDir makes the audit crash-durable: when it is non-empty, every
// obligation is fsynced there before Do releases its optimistic
// answer, and a restart resumes from the journal's cursor — the user's
// protocol state is restored to the last durably closed epoch's
// boundary cut and every journaled obligation past it is re-verified,
// so the client re-demands audit closure instead of trusting
// pre-crash optimistic answers. The passed user
// supplies the identity on first start and is replaced by the restored
// state on resume, so callers construct it identically either way.
// Resume needs the TCP broadcast hub (its full-history replay
// re-delivers peer epoch reports); the in-process Hub keeps no
// history. fs overrides the journal's filesystem (nil = the real one).
func NewP2EpochWAL(user *proto2.User, conn transport.Caller, bc broadcast.Channel, nUsers int, epochLen uint64, queue int, walDir string, fs durable.FS) (*Client, error) {
	if walDir != "" {
		cur, err := audit.LoadCursor(walDir)
		if err != nil {
			return nil, err
		}
		if cur != nil {
			restored, err := proto2.RestoreUser(cur.State)
			if err != nil {
				return nil, fmt.Errorf("driver: restore audit cursor state: %w", err)
			}
			if restored.ID() != user.ID() {
				return nil, fmt.Errorf("driver: audit journal %s belongs to user %d, not %d",
					walDir, restored.ID(), user.ID())
			}
			user = restored
		}
	}
	c := &Client{conn: conn, bc: bc, id: user.ID()}
	c.cond = sync.NewCond(&c.mu)
	aud, err := audit.New(audit.Config{
		User:  user,
		Epoch: epochLen,
		Users: nUsers,
		Queue: queue,
		Publish: func(r audit.Report) error {
			return bc.Publish(broadcast.Message{From: c.id, Payload: &epochReportMsg{Report: r}})
		},
		WALDir: walDir,
		WALFS:  fs,
	})
	if err != nil {
		return nil, err
	}
	c.aud = aud
	c.wg.Add(1)
	go c.recvLoop()
	return c, nil
}

// Audit returns the client's background auditor (nil in synchronous
// mode) for stats and fine-grained waits.
func (c *Client) Audit() *audit.Auditor { return c.aud }

// finishEpochLocked is the epoch-mode hot path past the exchange:
// decode the answer optimistically and queue the verification
// obligation. Everything slow — VO replay, hashing, the closure check —
// happens on the auditor.
func (c *Client) finishEpochLocked(op vdb.Op, raw any) (any, error) {
	resp, ok := raw.(*core.OpResponseII)
	if !ok {
		// lctr 0: the user's op count is auditor-owned state in epoch
		// mode and must not be read from the hot path.
		err := core.Detect(core.ProtocolViolation, c.id, 0, fmt.Errorf("bad response type %T", raw))
		c.recordFailure(err)
		return nil, err
	}
	ans, decErr := vdb.DecodeAnswer(resp.Answer)
	if err := c.aud.Submit(audit.Record{Op: op, Resp: resp}); err != nil {
		if !errors.Is(err, audit.ErrClosed) {
			c.recordFailure(err)
		}
		return nil, err
	}
	c.aud.NoteEpoch(resp.Ctr + 1)
	if decErr != nil {
		// The answer bytes are garbage. The obligation is already
		// queued — the audit will convict the server over the same
		// bytes — so surface a plain error without advancing anything.
		return nil, fmt.Errorf("driver: optimistic answer decode: %w", decErr)
	}
	return ans, nil
}

// Seal publishes this client's final registers to every peer; once all
// clients seal, the auditor closes the tail window with one final
// closure check. A client that stops operating MUST seal: epoch
// closure needs every user's boundary report, so a silent departure
// stalls peers at admission within one epoch — the same liveness rule
// a quiet user imposes on a sync-barrier round. No-op in synchronous
// mode (every sync round is already a full barrier).
func (c *Client) Seal() {
	if c.aud != nil {
		c.aud.Seal()
	}
}

// WaitAudited blocks until every queued obligation has been verified
// (epoch-audit mode; synchronous mode is trivially audited). It does
// not wait for epoch closure — see WaitSealed.
func (c *Client) WaitAudited(timeout time.Duration) error {
	return c.waitAudit((*audit.Auditor).WaitDrained, timeout)
}

// WaitSealed blocks until the all-sealed final closure check has
// passed (call Seal on every client first) or a failure surfaces.
func (c *Client) WaitSealed(timeout time.Duration) error {
	return c.waitAudit((*audit.Auditor).WaitSealed, timeout)
}

func (c *Client) waitAudit(wait func(*audit.Auditor, time.Duration) error, timeout time.Duration) error {
	if c.aud != nil {
		if err := wait(c.aud, timeout); err != nil {
			c.mirrorAuditFailure(err)
			return err
		}
	}
	return c.Err()
}

// mirrorAuditFailure pins an asynchronous audit failure into the
// client's own failure slot so Err and the next Do observe it.
func (c *Client) mirrorAuditFailure(err error) {
	if errors.Is(err, audit.ErrClosed) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recordFailure(err)
}
